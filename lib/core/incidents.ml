module Ia = Scion_addr.Ia

type effect =
  | Link_down of { a : Ia.t; b : Ia.t; label : string option }
  | Link_degraded of { a : Ia.t; b : Ia.t; label : string option; extra_ms : float }

type incident = { title : string; from_day : float; to_day : float; effect : effect }

let window_days = 20.0
let window_start_unix = 1737158400.0 (* 2025-01-18T00:00:00Z *)
let ia = Ia.of_string

let geant = ia "71-20965"
let bridges = ia "71-2:0:35"
let kisti_dj = ia "71-2:0:3b"
let kisti_sg = ia "71-2:0:3d"
let kisti_ams = ia "71-2:0:3e"
let kisti_chg = ia "71-2:0:3f"
let rnp = ia "71-1916"
let uva = ia "71-225"
let princeton = ia "71-88"
let equinix = ia "71-2:0:48"

let down ?label a b = Link_down { a; b; label }
let degraded ?label a b extra_ms = Link_degraded { a; b; label; extra_ms }

(* BRIDGES instability episodes: six-hour flaps adding latency on the
   access links, recurring through the window. *)
let bridges_flaps =
  List.concat_map
    (fun day ->
      [
        {
          title = "BRIDGES routing instability";
          from_day = day;
          to_day = day +. 0.25;
          effect = degraded bridges uva 22.0;
        };
        {
          title = "BRIDGES routing instability";
          from_day = day;
          to_day = day +. 0.25;
          effect = degraded bridges princeton 22.0;
        };
        {
          title = "BRIDGES routing instability";
          from_day = day +. 0.1;
          to_day = day +. 0.35;
          effect = degraded bridges equinix 18.0;
        };
      ])
    [ 2.0; 5.5; 9.0; 12.5; 16.0 ]

let calendar =
  [
    (* The RNP-BRIDGES circuit carried no SCION during the campaign, so
       UFMS reached North America through GEANT. *)
    {
      title = "RNP-BRIDGES circuit not yet in service";
      from_day = 0.0;
      to_day = window_days;
      effect = down rnp bridges;
    };
    (* Submarine-cable trouble on the KREONET Daejeon-Singapore direct
       link for well over half the window. *)
    {
      title = "KREONET DJ-SG direct link cut";
      from_day = 2.0;
      to_day = 18.0;
      effect = down ~label:"KREONET DJ-SG direct" kisti_dj kisti_sg;
    };
    (* The same submarine cable system carries the HK-SG ring segment and
       two of the parallel Singapore-Amsterdam circuits. *)
    {
      title = "cable cut: KREONET ring HK-SG";
      from_day = 2.0;
      to_day = 18.0;
      effect = down ~label:"KREONET ring HK-SG" (ia "71-2:0:3c") kisti_sg;
    };
    (* BRIDGES instabilities kept one Equinix cross-connect flapping for
       most of the window (Fig. 9's UVa-Equinix deviation). *)
    {
      title = "BRIDGES instability: Ashburn cross-connect A";
      from_day = 2.0;
      to_day = 16.0;
      effect = down ~label:"Ashburn cross-connect A" bridges equinix;
    };
    (* New EU-US capacity only became available on Jan 25 (day 7). *)
    {
      title = "EU-US capacity not yet delivered";
      from_day = 0.0;
      to_day = 7.0;
      effect = down ~label:"EU-US capacity (new Jan 25)" geant bridges;
    };
    {
      title = "AMS-CHG capacity not yet delivered";
      from_day = 0.0;
      to_day = 7.0;
      effect = down ~label:"AMS-CHG capacity (new Jan 25)" kisti_ams kisti_chg;
    };
    (* Jan 21 (day 3): maintenance on several links; longer paths chosen. *)
    {
      title = "Jan 21 maintenance: transatlantic";
      from_day = 3.0;
      to_day = 3.7;
      effect = down ~label:"GEANT transatlantic" geant bridges;
    };
    {
      title = "Jan 21 maintenance: GEANT Singapore link";
      from_day = 3.0;
      to_day = 3.5;
      effect = down geant kisti_sg;
    };
    {
      title = "Jan 21 maintenance: KREONET SG-AMS";
      from_day = 3.1;
      to_day = 3.6;
      effect = down ~label:"KREONET ring SG-AMS" kisti_sg kisti_ams;
    };
    (* Post-maintenance fluctuation days (Jan 22-24). *)
    {
      title = "post-maintenance reconfiguration";
      from_day = 3.7;
      to_day = 5.2;
      effect = degraded geant kisti_ams 9.0;
    };
    {
      title = "post-maintenance reconfiguration";
      from_day = 4.2;
      to_day = 6.0;
      effect = degraded ~label:"GEANT transatlantic" geant bridges 14.0;
    };
    (* Feb 6 (day 19): node upgrades and link maintenance. *)
    {
      title = "Feb 6 node upgrades: KREONET ring";
      from_day = 19.0;
      to_day = 19.6;
      effect = down ~label:"KREONET ring AMS-CHG" kisti_ams kisti_chg;
    };
    {
      title = "Feb 6 node upgrades: transatlantic";
      from_day = 19.0;
      to_day = 20.0;
      effect = degraded geant bridges 30.0;
    };
    {
      title = "Feb 6 node upgrades: GEANT @AMS";
      from_day = 19.2;
      to_day = 20.0;
      effect = degraded geant kisti_ams 18.0;
    };
  ]
  @ bridges_flaps

let active_at day =
  List.filter (fun i -> day >= i.from_day && day < i.to_day) calendar

(* --- Canned fault-injection replays --- *)

let day_seconds = 86400.0

(* Topology link ids equal the link's index in [Topology.links] (the
   fabric and the mesh are both built in that order), so an (a, b, label)
   incident endpoint pair resolves to fabric link ids by position. *)
let links_between ?label a b =
  List.rev
    (snd
       (List.fold_left
          (fun (idx, acc) (l : Topology.link_info) ->
            let matches =
              ((Ia.equal a l.Topology.a && Ia.equal b l.Topology.b)
              || (Ia.equal a l.Topology.b && Ia.equal b l.Topology.a))
              && match label with None -> true | Some lb -> lb = l.Topology.label
            in
            (idx + 1, if matches then idx :: acc else acc))
          (0, []) Topology.links))

let scenario_of_incident ~origin_day (i : incident) =
  let span_s d = Float.max 0.0 ((d -. origin_day) *. day_seconds) in
  let from_s = span_s i.from_day and to_s = span_s i.to_day in
  let compile (a, b, label) f =
    Fault.Scenario.seq (List.map f (links_between ?label a b))
  in
  match i.effect with
  | Link_down { a; b; label } ->
      compile (a, b, label) (fun link -> Fault.Scenario.outage ~link ~from_s ~to_s)
  | Link_degraded { a; b; label; extra_ms } ->
      compile (a, b, label) (fun link -> Fault.Scenario.window ~link ~from_s ~to_s ~extra_ms)

let titled prefix =
  List.filter
    (fun i -> String.length i.title >= String.length prefix
              && String.sub i.title 0 (String.length prefix) = prefix)
    calendar

let scenario_of_titled ~origin_day prefix =
  Fault.Scenario.seq (List.map (scenario_of_incident ~origin_day) (titled prefix))

let jan21 = scenario_of_titled ~origin_day:3.0 "Jan 21"
let feb6 = scenario_of_titled ~origin_day:19.0 "Feb 6"

let change_points =
  let points =
    List.concat_map (fun i -> [ i.from_day; i.to_day ]) calendar @ [ 0.0; window_days ]
  in
  List.sort_uniq compare (List.filter (fun d -> d >= 0.0 && d <= window_days) points)
