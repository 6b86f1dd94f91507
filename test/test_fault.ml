(* The deterministic fault-injection subsystem: scenario and adversary
   elaboration, combinator semantics, the injector's engine wiring, and
   the canned incident replays. *)

module Rng = Scion_util.Rng
module Net = Netsim.Net
module Engine = Netsim.Engine
module Scenario = Fault.Scenario
module Injector = Fault.Injector

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
        ++ blackout ~from_s:2.0 ~to_s:2.5)
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

let test_links_between () =
  let geant = Scion_addr.Ia.of_string "71-20965" in
  let uva = Scion_addr.Ia.of_string "71-225" in
  Alcotest.(check bool) "no link between non-adjacent ASes" true
    (Sciera.Incidents.links_between geant uva = []);
  let bridges = Scion_addr.Ia.of_string "71-2:0:35" in
  let all = Sciera.Incidents.links_between geant bridges in
  Alcotest.(check bool) "parallel circuits found" true (List.length all >= 2);
  let one = Sciera.Incidents.links_between ~label:"GEANT transatlantic" geant bridges in
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
        ] );
      ( "incidents",
        [
          Alcotest.test_case "jan21/feb6 replays heal" `Quick test_canned_replays;
          Alcotest.test_case "links_between" `Quick test_links_between;
        ] );
    ]
