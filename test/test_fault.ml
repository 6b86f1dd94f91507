(* The deterministic fault-injection subsystem: scenario and adversary
   elaboration, combinator semantics, the injector's engine wiring, and
   the canned incident replays. *)

module Rng = Scion_util.Rng
module Net = Netsim.Net
module Engine = Netsim.Engine
module Scenario = Fault.Scenario
module Injector = Fault.Injector
module Mesh = Scion_controlplane.Mesh
module Combinator = Scion_controlplane.Combinator

let rng () = Rng.of_label 42L "fault"

let op_strings evs =
  List.map (fun (e : Scenario.event) -> (e.at_s, Scenario.op_to_string e.op)) evs

(* --- Scenario elaboration ----------------------------------------------- *)

let test_elaborate_sorted_and_deterministic () =
  let s =
    Scenario.(
      outage ~link:3 ~from_s:10.0 ~to_s:20.0
      ++ window ~link:1 ~from_s:5.0 ~to_s:25.0 ~extra_ms:12.0
      ++ flap ~jitter_s:2.0 ~link:0 ~start_s:1.0 ~count:3 ~down_s:4.0 ~up_s:6.0 ())
  in
  let a = Scenario.elaborate s ~rng:(rng ()) in
  let b = Scenario.elaborate s ~rng:(rng ()) in
  Alcotest.(check (list (pair (float 1e-9) string)))
    "same rng, same schedule" (op_strings a) (op_strings b);
  let times = List.map (fun (e : Scenario.event) -> e.at_s) a in
  Alcotest.(check bool) "sorted by time" true (List.sort compare times = times);
  Alcotest.(check bool) "all times non-negative" true (List.for_all (fun t -> t >= 0.0) times)

let test_elaborate_seed_sensitivity () =
  (* The flap jitter must come from the scenario stream: a different stream
     yields a different schedule. *)
  let s = Scenario.flap ~jitter_s:5.0 ~link:0 ~start_s:0.0 ~count:4 ~down_s:10.0 ~up_s:10.0 () in
  let a = op_strings (Scenario.elaborate s ~rng:(Rng.of_label 1L "fault")) in
  let b = op_strings (Scenario.elaborate s ~rng:(Rng.of_label 2L "fault")) in
  Alcotest.(check bool) "different stream, different jitter" true (a <> b)

let test_outage_and_window_shape () =
  let evs = Scenario.(elaborate (outage ~link:7 ~from_s:2.0 ~to_s:9.0)) ~rng:(rng ()) in
  (match evs with
  | [ { at_s = a; op = Scenario.Link_down 7 }; { at_s = b; op = Scenario.Link_up 7 } ] ->
      Alcotest.(check (float 1e-9)) "down at from_s" 2.0 a;
      Alcotest.(check (float 1e-9)) "up at to_s" 9.0 b
  | _ -> Alcotest.fail "outage must elaborate to down/up");
  let evs = Scenario.(elaborate (window ~link:2 ~from_s:1.0 ~to_s:4.0 ~extra_ms:30.0)) ~rng:(rng ()) in
  match evs with
  | [
   { op = Scenario.Extra_latency { link = 2; ms = 30.0 }; _ };
   { op = Scenario.Extra_latency { link = 2; ms = 0.0 }; _ };
  ] ->
      ()
  | _ -> Alcotest.fail "window must add then clear extra latency"

let test_every_excludes_until () =
  let evs =
    Scenario.(elaborate (every ~period_s:10.0 ~until_s:30.0 0.0 [ Scenario.Control_down ]))
      ~rng:(rng ())
  in
  Alcotest.(check (list (float 1e-9)))
    "fires strictly before until_s" [ 0.0; 10.0; 20.0 ]
    (List.map (fun (e : Scenario.event) -> e.at_s) evs)

let test_combinator_validation () =
  let raises f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "negative at rejected" true
    (raises (fun () -> Scenario.at (-1.0) [ Scenario.Control_down ]));
  Alcotest.(check bool) "zero period rejected" true
    (raises (fun () -> Scenario.every ~period_s:0.0 ~until_s:1.0 0.0 [ Scenario.Control_down ]))

(* --- Adversary campaigns -------------------------------------------------- *)

module Adversary = Fault.Adversary

let adv_rng () = Rng.of_label 42L "fault.adv"
let ia = Scion_addr.Ia.of_string

let adv_op_strings evs =
  List.map (fun (e : Adversary.event) -> (e.at_s, Adversary.op_to_string e.op)) evs

let test_adversary_elaborate_deterministic () =
  let c =
    Adversary.(
      beacon_corruption ~compromised:(ia "71-20965") ~from_s:2.0 ~until_s:8.0 ~period_s:1.0
        ~count:5
      ++ wormhole ~a:(ia "71-225") ~b:(ia "71-88") ~from_s:3.0 ~to_s:6.0
      ++ compromise_drill ~isd:71 ~at_s:1.0 ~rotate_after_s:4.0)
  in
  let a = Adversary.elaborate c ~rng:(adv_rng ()) in
  let b = Adversary.elaborate c ~rng:(adv_rng ()) in
  Alcotest.(check (list (pair (float 1e-9) string)))
    "same stream, same schedule" (adv_op_strings a) (adv_op_strings b);
  let times = List.map (fun (e : Adversary.event) -> e.at_s) a in
  Alcotest.(check bool) "sorted by time" true (List.sort compare times = times)

let test_adversary_burst_window () =
  let evs =
    Adversary.(
      elaborate
        (beacon_replay ~compromised:(ia "71-20965") ~from_s:2.0 ~until_s:5.0 ~period_s:1.0
           ~age_s:3600.0 ~count:3))
      ~rng:(adv_rng ())
  in
  (* [from_s, until_s) with period 1 -> bursts at 2, 3, 4 only. *)
  Alcotest.(check (list (float 1e-9)))
    "bursts strictly before until_s" [ 2.0; 3.0; 4.0 ]
    (List.map (fun (e : Adversary.event) -> e.at_s) evs)

let test_adversary_wormhole_shape () =
  let evs =
    Adversary.(elaborate (wormhole ~a:(ia "71-225") ~b:(ia "71-88") ~from_s:1.0 ~to_s:7.0))
      ~rng:(adv_rng ())
  in
  match evs with
  | [ { at_s = up; op = Adversary.Wormhole_up _ }; { at_s = down; op = Adversary.Wormhole_down _ } ]
    ->
      Alcotest.(check (float 1e-9)) "tunnel up at from_s" 1.0 up;
      Alcotest.(check (float 1e-9)) "tunnel down at to_s" 7.0 down
  | _ -> Alcotest.fail "wormhole must elaborate to up then down"

let test_adversary_validation () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "negative at rejected" true
    (raises (fun () -> Adversary.at (-1.0) [ Adversary.Trc_compromise { isd = 71 } ]));
  Alcotest.(check bool) "duplicate_pct > 100 rejected" true
    (raises (fun () ->
         Adversary.flood ~attacker:(ia "71-225") ~target:(ia "71-88") ~from_s:0.0 ~until_s:1.0
           ~period_s:1.0 ~packets:10 ~duplicate_pct:101))

(* --- Injector ------------------------------------------------------------ *)

(* One timer path serves both campaign kinds; a recording applier sees
   every op once, in schedule order. *)
let test_attach_fires_in_order () =
  let engine = Engine.create () in
  let seen = ref [] in
  let inj =
    Injector.attach ~engine
      ~apply:(fun op -> seen := Adversary.op_to_string op :: !seen)
      (Adversary.elaborate
         Adversary.(
           at 2.0 [ Adversary.Trc_compromise { isd = 71 } ]
           ++ beacon_corruption ~compromised:(ia "71-20965") ~from_s:1.0 ~until_s:4.0
                ~period_s:1.0 ~count:2
           ++ at 3.0 [ Adversary.Trc_rotate { isd = 71 } ])
         ~rng:(adv_rng ()))
  in
  Alcotest.(check int) "nothing fired before the engine runs" 0 (Injector.fired inj);
  Engine.run engine;
  let total = List.length (Injector.events inj) in
  Alcotest.(check int) "every op fired exactly once" total (Injector.fired inj);
  Alcotest.(check (list string))
    "apply observed the schedule in order"
    (List.map (fun (e : Adversary.event) -> Adversary.op_to_string e.op) (Injector.events inj))
    (List.rev !seen);
  (* The drill ordering survives the timer compilation: the compromise
     (t=2) applies before the rotation (t=3). *)
  let pos needle =
    let rec go i = function
      | [] -> Alcotest.fail (needle ^ " never applied")
      | s :: rest -> if s = needle then i else go (i + 1) rest
    in
    go 0 (List.rev !seen)
  in
  Alcotest.(check bool) "compromise before rotation" true
    (pos (Adversary.op_to_string (Adversary.Trc_compromise { isd = 71 }))
    < pos (Adversary.op_to_string (Adversary.Trc_rotate { isd = 71 })))

let test_attach_rejects_past_ops () =
  let engine = Engine.create ~start:100.0 () in
  match
    Injector.attach ~engine
      ~apply:(fun _ -> ())
      (Scenario.elaborate (Scenario.outage ~link:0 ~from_s:1.0 ~to_s:2.0) ~rng:(rng ()))
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "attaching a campaign behind the engine clock must be rejected"

(* The same clock check holds for an adversary schedule. *)
let test_attach_adversary_rejects_past_ops () =
  let engine = Engine.create ~start:100.0 () in
  match
    Injector.attach ~engine
      ~apply:(fun _ -> ())
      (Adversary.elaborate
         (Adversary.at 1.0 [ Adversary.Trc_compromise { isd = 71 } ])
         ~rng:(adv_rng ()))
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "attaching a campaign behind the engine clock must be rejected"

(* [Network.inject] drives the fabric and reads control state back from
   the fired prefix of the schedule. *)
let test_network_inject_applies_ops () =
  let net = Sciera.Network.create ~per_origin:4 ~verify_pcbs:false () in
  let fabric = Sciera.Network.scion_fabric net in
  let l = 0 in
  let engine = Engine.create () in
  let inj =
    Sciera.Network.inject net ~engine ~rng:(rng ())
      Scenario.(
        outage ~link:l ~from_s:1.0 ~to_s:3.0
        ++ window ~link:l ~from_s:1.0 ~to_s:3.0 ~extra_ms:25.0
        ++ at 2.0 [ Control_down ]
        ++ at 2.5 [ Control_up ])
  in
  let control_up () =
    Scenario.control_up (List.filteri (fun i _ -> i < Injector.fired inj) (Injector.events inj))
  in
  let rebeacons = Sciera.Network.rebeacon_count net in
  Alcotest.(check int) "nothing fired before the engine runs" 0 (Injector.fired inj);
  Alcotest.(check bool) "link up initially" true (Net.link_up fabric l);
  Engine.run engine ~until:1.5;
  Alcotest.(check bool) "link down mid-outage" false (Net.link_up fabric l);
  Alcotest.(check (float 1e-9)) "extra latency applied" 25.0 (Net.extra_latency fabric l);
  Alcotest.(check bool) "control up before blackout" true (control_up ());
  Engine.run engine ~until:2.2;
  Alcotest.(check bool) "control down during blackout" false (control_up ());
  Engine.run engine;
  Alcotest.(check bool) "link restored" true (Net.link_up fabric l);
  Alcotest.(check (float 1e-9)) "extra latency cleared" 0.0 (Net.extra_latency fabric l);
  Alcotest.(check bool) "control restored" true (control_up ());
  Alcotest.(check bool) "repair re-converged the control plane" true
    (Sciera.Network.rebeacon_count net > rebeacons);
  Alcotest.(check int) "every op fired exactly once"
    (List.length (Injector.events inj))
    (Injector.fired inj)

(* Failures never re-beacon; a node repair re-beacons once, however many
   links it brings back, and [rebeacon_count] counts that one pass. *)
let test_node_repair_rebeacons_once () =
  let obs = Sciera.Obs.create () in
  let net = Sciera.Network.create ~per_origin:4 ~verify_pcbs:false ~telemetry:obs () in
  let node = 0 in
  Alcotest.(check bool) "node has several links" true
    (List.length (Net.links_of (Sciera.Network.scion_fabric net) node) >= 2);
  let runs () =
    match
      List.find_opt
        (fun (s : Telemetry.Metrics.sample) -> s.sample_name = "mesh.beaconing_runs")
        (Sciera.Obs.samples obs)
    with
    | Some { value = Telemetry.Metrics.Counter n; _ } -> n
    | Some _ | None -> Alcotest.fail "mesh.beaconing_runs missing"
  in
  let runs0 = runs () and rebeacons0 = Sciera.Network.rebeacon_count net in
  let engine = Engine.create () in
  ignore
    (Sciera.Network.inject net ~engine ~rng:(rng ())
       Scenario.(at 1.0 [ Node_down node ] ++ at 2.0 [ Node_up node ]));
  Engine.run engine ~until:1.5;
  Alcotest.(check int) "node failure does not re-beacon" runs0 (runs ());
  Engine.run engine;
  Alcotest.(check int) "node repair runs one beaconing pass" (runs0 + 1) (runs ());
  Alcotest.(check int) "rebeacon_count agrees with the mesh" (rebeacons0 + 1)
    (Sciera.Network.rebeacon_count net)

(* A rogue registration reaches the very next lookup: the path memo is
   dropped with the registry write, even when the pair was just looked up. *)
let test_rogue_segments_served_next_lookup () =
  let net = Sciera.Network.create ~per_origin:4 ~verify_pcbs:false () in
  let mesh = Sciera.Network.mesh net in
  let victim =
    List.find (fun a -> not (Mesh.is_core mesh a)) (List.rev (Mesh.ases mesh))
  in
  let src =
    match Mesh.down_segments mesh victim with
    | seg :: _ -> Scion_controlplane.Pcb.origin seg
    | [] -> Alcotest.fail "victim has no down segment"
  in
  let before = Sciera.Network.paths net ~src ~dst:victim in
  let engine = Engine.create () in
  ignore
    (Sciera.Network.attach_adversary net ~engine ~rng:(adv_rng ())
       (Adversary.at 1.0
          [ Adversary.Rogue_segments { compromised = src; victim; count = 1 } ]));
  Engine.run engine;
  let fresh =
    List.filter
      (fun (p : Combinator.fullpath) ->
        not
          (List.exists
             (fun (q : Combinator.fullpath) -> q.Combinator.segments = p.Combinator.segments)
             before))
      (Sciera.Network.paths net ~src ~dst:victim)
  in
  Alcotest.(check int) "the rogue path is served" 1 (List.length fresh);
  Alcotest.(check bool) "and it does not deliver" false
    (List.exists (Mesh.path_alive mesh ~now:(Sciera.Network.now_unix net)) fresh)

(* --- Canned incident replays --------------------------------------------- *)

let test_canned_replays () =
  List.iter
    (fun (name, scenario) ->
      let evs = Scenario.elaborate scenario ~rng:(rng ()) in
      Alcotest.(check bool) (name ^ " is non-empty") true (evs <> []);
      (* Every Link_down has a matching later Link_up: the replays heal. *)
      let downs = Hashtbl.create 8 in
      List.iter
        (fun (e : Scenario.event) ->
          match e.op with
          | Scenario.Link_down l -> Hashtbl.replace downs l true
          | Scenario.Link_up l -> Hashtbl.remove downs l
          | _ -> ())
        evs;
      Alcotest.(check int) (name ^ " repairs every outage") 0 (Hashtbl.length downs))
    [ ("jan21", Sciera.Incidents.jan21); ("feb6", Sciera.Incidents.feb6) ]

module Incidents = Sciera.Incidents
module Topology = Sciera.Topology

(* The replay compiler before the calendar was compiled per link, kept as
   the oracle: every incident became set-then-clear spans on each link its
   endpoints and label name. *)
let ref_links_between ?label a b =
  List.concat
    (List.mapi
       (fun idx (l : Topology.link_info) ->
         if
           ((Scion_addr.Ia.equal a l.Topology.a && Scion_addr.Ia.equal b l.Topology.b)
           || (Scion_addr.Ia.equal a l.Topology.b && Scion_addr.Ia.equal b l.Topology.a))
           && match label with None -> true | Some lb -> lb = l.Topology.label
         then [ idx ]
         else [])
       Topology.links)

let ref_scenario_of_incident ~origin_day (i : Incidents.incident) =
  let span_s d = Float.max 0.0 ((d -. origin_day) *. Incidents.day_seconds) in
  let from_s = span_s i.Incidents.from_day and to_s = span_s i.Incidents.to_day in
  let compile (a, b, label) f = Scenario.seq (List.map f (ref_links_between ?label a b)) in
  match i.Incidents.effect with
  | Incidents.Link_down { a; b; label } ->
      compile (a, b, label) (fun link -> Scenario.outage ~link ~from_s ~to_s)
  | Incidents.Link_degraded { a; b; label; extra_ms } ->
      compile (a, b, label) (fun link -> Scenario.window ~link ~from_s ~to_s ~extra_ms)

let ref_replay ~origin_day incidents =
  Scenario.seq (List.map (ref_scenario_of_incident ~origin_day) incidents)

let link_of = function
  | Scenario.Link_down l | Scenario.Link_up l
  | Scenario.Extra_latency { link = l; _ }
  | Scenario.Loss_burst { link = l; _ } -> l
  | Scenario.Node_down _ | Scenario.Node_up _ | Scenario.Control_down | Scenario.Control_up -> -1

(* Events as (time bits, link, op), simultaneous ones sorted by link. *)
let by_time_then_link evs =
  List.sort compare
    (List.map (fun (e : Scenario.event) -> (Int64.bits_of_float e.at_s, link_of e.op, e.op)) evs)

let test_replays_match_oracle () =
  List.iter
    (fun (name, scenario, prefix, origin_day, count) ->
      let titled =
        List.filter (fun i -> String.starts_with ~prefix i.Incidents.title) Incidents.calendar
      in
      let got = Scenario.elaborate scenario ~rng:(rng ()) in
      let want = Scenario.elaborate (ref_replay ~origin_day titled) ~rng:(rng ()) in
      Alcotest.(check int) (name ^ " event count") count (List.length got);
      Alcotest.(check bool)
        (name ^ " events bit-equal to the oracle")
        true
        (by_time_then_link got = by_time_then_link want))
    [
      ("jan21", Incidents.jan21, "Jan 21", 3.0, 6);
      ("feb6", Incidents.feb6, "Feb 6", 19.0, 12);
    ]

(* An outage and two overlapping degradations on one link: the replay
   carries the summed latency while the windows overlap, where the oracle's
   set-then-clear spans drop to 0 ms with a window still open. *)
let test_replay_sums_overlaps () =
  let label = "GEANT transatlantic" in
  let link, ref_id =
    match
      List.concat
        (List.mapi (fun id (l : Topology.link_info) -> if l.Topology.label = label then [ (l, id) ] else [])
           Topology.links)
    with
    | [ found ] -> found
    | _ -> Alcotest.fail "expected one GEANT transatlantic link"
  in
  let a = link.Topology.a and b = link.Topology.b and label = Some label in
  let incident from_day to_day effect = { Incidents.title = "synthetic"; from_day; to_day; effect } in
  let incidents =
    [
      incident 1.0 2.0 (Incidents.Link_down { a; b; label });
      incident 0.5 1.5 (Incidents.Link_degraded { a; b; label; extra_ms = 10.0 });
      incident 1.25 3.0 (Incidents.Link_degraded { a; b; label; extra_ms = 5.0 });
    ]
  in
  let evs =
    Scenario.elaborate
      (Incidents.replay (Incidents.compile incidents [ link ]) ~origin_day:0.0)
      ~rng:(rng ())
  in
  let d = Incidents.day_seconds in
  Alcotest.(check (list (pair (float 0.0) string)))
    "one event per state change, latency summed"
    [
      (0.5 *. d, "link 0 extra latency 10 ms");
      (1.0 *. d, "link 0 down");
      (1.25 *. d, "link 0 extra latency 15 ms");
      (1.5 *. d, "link 0 extra latency 5 ms");
      (2.0 *. d, "link 0 up");
      (3.0 *. d, "link 0 extra latency 0 ms");
    ]
    (op_strings evs);
  (* (up, extra ms) of [id] after the events up to [day]. *)
  let state_after id day evs =
    List.fold_left
      (fun (up, ms) (e : Scenario.event) ->
        if e.at_s > day *. d || link_of e.op <> id then (up, ms)
        else
          match e.op with
          | Scenario.Link_down _ -> (false, ms)
          | Scenario.Link_up _ -> (true, ms)
          | Scenario.Extra_latency { ms; _ } -> (up, ms)
          | Scenario.Loss_burst _ | Scenario.Node_down _ | Scenario.Node_up _
          | Scenario.Control_down | Scenario.Control_up ->
              (up, ms))
      (true, 0.0) evs
  in
  let state = Alcotest.(pair bool (float 0.0)) in
  Alcotest.(check state) "heals: up at 0 ms" (true, 0.0) (state_after 0 4.0 evs);
  Alcotest.(check state) "day 1.6: down, second window open" (false, 5.0) (state_after 0 1.6 evs);
  let old = Scenario.elaborate (ref_replay ~origin_day:0.0 incidents) ~rng:(rng ()) in
  Alcotest.(check state)
    "the oracle clears latency with a window still open" (false, 0.0) (state_after ref_id 1.6 old)

(* Links an incident between [a] and [b] hits: compile one outage against
   the fabric and read back which links it takes down. *)
let links_hit ?label a b =
  let timeline =
    Incidents.compile
      [ { Incidents.title = "probe"; from_day = 0.0; to_day = 1.0; effect = Incidents.Link_down { a; b; label } } ]
      Topology.links
  in
  List.filter
    (fun id -> not (Incidents.state_at timeline id 0.5).Incidents.up)
    (List.init (List.length Topology.links) Fun.id)

let test_links_between () =
  let geant = Scion_addr.Ia.of_string "71-20965" in
  let uva = Scion_addr.Ia.of_string "71-225" in
  Alcotest.(check bool) "no link between non-adjacent ASes" true (links_hit geant uva = []);
  let bridges = Scion_addr.Ia.of_string "71-2:0:35" in
  let all = links_hit geant bridges in
  Alcotest.(check bool) "parallel circuits found" true (List.length all >= 2);
  let one = links_hit ~label:"GEANT transatlantic" geant bridges in
  Alcotest.(check int) "label narrows to one circuit" 1 (List.length one);
  Alcotest.(check bool) "labelled circuit is among all" true
    (List.for_all (fun l -> List.mem l all) one)

let () =
  Alcotest.run "fault"
    [
      ( "scenario",
        [
          Alcotest.test_case "elaborate sorted + deterministic" `Quick
            test_elaborate_sorted_and_deterministic;
          Alcotest.test_case "jitter drawn from scenario stream" `Quick
            test_elaborate_seed_sensitivity;
          Alcotest.test_case "outage/window shapes" `Quick test_outage_and_window_shape;
          Alcotest.test_case "every excludes until" `Quick test_every_excludes_until;
          Alcotest.test_case "combinator validation" `Quick test_combinator_validation;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "elaborate sorted + deterministic" `Quick
            test_adversary_elaborate_deterministic;
          Alcotest.test_case "burst window excludes until" `Quick test_adversary_burst_window;
          Alcotest.test_case "wormhole up/down shape" `Quick test_adversary_wormhole_shape;
          Alcotest.test_case "combinator validation" `Quick test_adversary_validation;
          Alcotest.test_case "past ops rejected" `Quick test_attach_adversary_rejects_past_ops;
        ] );
      ( "injector",
        [
          Alcotest.test_case "attach fires in order" `Quick test_attach_fires_in_order;
          Alcotest.test_case "past ops rejected" `Quick test_attach_rejects_past_ops;
          Alcotest.test_case "Network.inject applies ops" `Quick test_network_inject_applies_ops;
          Alcotest.test_case "node repair re-beacons once" `Quick test_node_repair_rebeacons_once;
          Alcotest.test_case "rogue segments served by the next lookup" `Quick
            test_rogue_segments_served_next_lookup;
        ] );
      ( "incidents",
        [
          Alcotest.test_case "jan21/feb6 replays heal" `Quick test_canned_replays;
          Alcotest.test_case "links_between" `Quick test_links_between;
          Alcotest.test_case "jan21/feb6 match the span oracle" `Quick test_replays_match_oracle;
          Alcotest.test_case "replay sums overlapping windows" `Quick test_replay_sums_overlaps;
        ] );
    ]
