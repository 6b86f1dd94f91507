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
      List.map
        (fun (other, from_off, to_off, ms) ->
          {
            title = "BRIDGES routing instability";
            from_day = day +. from_off;
            to_day = day +. to_off;
            effect = degraded bridges other ms;
          })
        [ (uva, 0.0, 0.25, 22.0); (princeton, 0.0, 0.25, 22.0); (equinix, 0.1, 0.35, 18.0) ])
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

(* --- The compiled calendar --- *)

let day_seconds = 86400.0

type state = { up : bool; extra_ms : float }

(* Per link, in day order: each start or end day of the incidents that
   hit it, with the state that holds from it to the next. *)
type timeline = (float * state) list array

let nominal = { up = true; extra_ms = 0.0 }

let compile incidents links =
  let hits (l : Topology.link_info) (Link_down { a; b; label } | Link_degraded { a; b; label; _ }) =
    ((Ia.equal a l.Topology.a && Ia.equal b l.Topology.b)
    || (Ia.equal a l.Topology.b && Ia.equal b l.Topology.a))
    && match label with None -> true | Some lb -> lb = l.Topology.label
  in
  let state_on mine day =
    List.fold_left
      (fun st i ->
        match i.effect with
        | _ when not (day >= i.from_day && day < i.to_day) -> st
        | Link_down _ -> { st with up = false }
        | Link_degraded { extra_ms; _ } -> { st with extra_ms = st.extra_ms +. extra_ms })
      nominal mine
  in
  Array.of_list
    (List.map
       (fun l ->
         let mine = List.filter (fun i -> hits l i.effect) incidents in
         List.concat_map (fun i -> [ i.from_day; i.to_day ]) mine
         |> List.sort_uniq Float.compare
         |> List.map (fun d -> (d, state_on mine d)))
       links)

let state_at timeline link day =
  List.fold_left (fun st (d, s) -> if d <= day then s else st) nominal timeline.(link)

let replay timeline ~origin_day =
  let at_s d = Float.max 0.0 ((d -. origin_day) *. day_seconds) in
  let changes link steps =
    List.fold_left
      (fun (prev, acc) (d, st) ->
        let open Fault.Scenario in
        let ops =
          (if st.up = prev.up then [] else [ (if st.up then Link_up link else Link_down link) ])
          @
          if Float.equal st.extra_ms prev.extra_ms then []
          else [ Extra_latency { link; ms = st.extra_ms } ]
        in
        (st, if ops = [] then acc else at (at_s d) ops :: acc))
      (nominal, []) steps
    |> snd
  in
  (* [seq] sorts stably by time: simultaneous changes fire in link order. *)
  Fault.Scenario.seq (List.concat (Array.to_list (Array.mapi changes timeline)))

let jan21, feb6 =
  let slice prefix ~origin_day =
    replay ~origin_day
      (compile (List.filter (fun i -> String.starts_with ~prefix i.title) calendar) Topology.links)
  in
  (slice "Jan 21" ~origin_day:3.0, slice "Feb 6" ~origin_day:19.0)

let change_points =
  let points =
    List.concat_map (fun i -> [ i.from_day; i.to_day ]) calendar @ [ 0.0; window_days ]
  in
  List.sort_uniq compare (List.filter (fun d -> d >= 0.0 && d <= window_days) points)
