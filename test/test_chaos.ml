(* Chaos soak: seeded qcheck property composing random small self-closing
   Fault.Scenario programs — latency windows, outages, loss bursts, flaps,
   node partitions, control blackouts — against the full simulated mesh,
   asserting that Pan.Conn.send never raises while the storm replays and
   that delivery recovers once every fault has cleared.

   Also wired into `dune build @chaos` (alias rule in test/dune) next to
   the canned incident replays run from bench/. *)

module Rng = Scion_util.Rng
module Pan = Scion_endhost.Pan
module Scenario = Fault.Scenario
module Adversary = Fault.Adversary

(* One shared network: every generated scenario is self-closing, and the
   property checks full replay, so each case hands the fabric back healed
   (the same reuse discipline as test_golden_diff's injector-isolation test). *)
let net = lazy (Sciera.Network.create ~per_origin:8 ~verify_pcbs:false ())

let reachable_pairs net =
  let ias =
    List.map (fun (a : Sciera.Topology.as_info) -> a.Sciera.Topology.ia) Sciera.Topology.ases
  in
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          if
            (not (Scion_addr.Ia.equal a b))
            && List.length (Sciera.Network.paths net ~src:a ~dst:b) >= 2
          then Some (a, b)
          else None)
        ias)
    ias
  |> Array.of_list

let pairs = lazy (reachable_pairs (Lazy.force net))

(* A fault spec is plain small ints so qcheck can print and shrink it;
   [to_scenario] maps them onto bounded, always-valid scenario programs
   that open no later than 4.5 s and close no later than ~10 s. *)
type fault_spec = (int * int) * (int * int * int)

let to_scenario fabric (((shape, link), (from_q, dur_q, mag_q)) : fault_spec) =
  let link = link mod Netsim.Net.num_links fabric in
  let from_s = 0.5 +. (0.04 *. float_of_int (from_q mod 100)) in
  let to_s = from_s +. 0.5 +. (0.05 *. float_of_int (dur_q mod 100)) in
  match shape mod 6 with
  | 0 -> Scenario.window ~link ~from_s ~to_s ~extra_ms:(20.0 +. float_of_int (mag_q mod 200))
  | 1 -> Scenario.outage ~link ~from_s ~to_s
  | 2 -> Scenario.burst ~link ~from_s ~to_s ~loss:(0.1 +. (0.1 *. float_of_int (mag_q mod 8)))
  | 3 ->
      Scenario.flap ~link ~start_s:from_s ~count:(1 + (mag_q mod 3)) ~down_s:0.4 ~up_s:0.4 ()
  | 4 ->
      let node, _ = Netsim.Net.endpoints fabric link in
      Scenario.(at from_s [ Node_down node ] ++ at to_s [ Node_up node ])
  | _ -> Scenario.(at from_s [ Control_down ] ++ at to_s [ Control_up ])

let storm_horizon_s = 15.0 (* every generated fault has cleared by here *)

let chaos_property (pair_idx, seed, specs) =
  let net = Lazy.force net in
  let fabric = Sciera.Network.scion_fabric net in
  let pairs = Lazy.force pairs in
  let src, dst = pairs.(pair_idx mod Array.length pairs) in
  let scenario = Scenario.seq (List.map (to_scenario fabric) specs) in
  let engine = Netsim.Engine.create () in
  let injector =
    Sciera.Network.inject net ~engine
      ~rng:(Rng.of_label (Int64.of_int seed) "chaos.fault")
      scenario
  in
  let latency_of = Sciera.Network.scion_rtt_base net in
  let transport path ~payload:_ =
    match Sciera.Network.scion_rtt_sample net path with
    | `Rtt ms -> Pan.Conn.Sent { rtt_ms = ms }
    | `Lost -> Pan.Conn.Send_failed
  in
  let conn =
    match
      Pan.Conn.dial ~policy:Pan.default_policy ~latency_of ~transport
        ~paths:(Sciera.Network.paths net ~src ~dst)
        ~reprobe:
          (Scion_util.Backoff.make ~base_ms:500.0 (), Rng.of_label (Int64.of_int seed) "chaos.reprobe")
        ()
    with
    | Ok c -> c
    | Error e -> QCheck.Test.fail_reportf "dial failed before any fault: %s" e
  in
  (* The storm: Send_failed is acceptable mid-outage, an exception never. *)
  let clock = ref 0.1 in
  while !clock < storm_horizon_s do
    Netsim.Engine.run engine ~until:!clock;
    (try ignore (Pan.Conn.send ~now:!clock conn ~payload:"chaos" : Pan.Conn.send_outcome)
     with e ->
       QCheck.Test.fail_reportf "send raised at t=%.2f: %s" !clock (Printexc.to_string e));
    clock := !clock +. 0.5
  done;
  Netsim.Engine.run engine;
  if Fault.Injector.fired injector <> List.length (Fault.Injector.events injector) then
    QCheck.Test.fail_reportf "scenario did not fully replay";
  (* Self-closing program fully replayed: the fabric is healed; delivery
     must come back within the re-probe budget. *)
  let rec recovers attempts now =
    if attempts = 0 then false
    else
      match
        try Pan.Conn.send ~now conn ~payload:"recovery"
        with e ->
          QCheck.Test.fail_reportf "send raised after recovery: %s" (Printexc.to_string e)
      with
      | Pan.Conn.Sent _ -> true
      | Pan.Conn.Send_failed -> recovers (attempts - 1) (now +. 1.0)
  in
  if not (recovers 120 storm_horizon_s) then
    QCheck.Test.fail_reportf "delivery did not recover after the faults cleared";
  true

let chaos_soak =
  let spec_arb =
    QCheck.(pair (pair small_nat small_nat) (triple small_nat small_nat small_nat))
  in
  QCheck.Test.make ~name:"random fault storms: send total, delivery recovers" ~count:25
    QCheck.(triple small_nat small_nat (list_of_size Gen.(1 -- 4) spec_arb))
    chaos_property

(* ------------------------------------------------------------------ *)
(* Mixed storms: infra faults AND byzantine campaign ops interleaved on a
   verifying mesh with the data-plane defences armed. The campaigns below
   are self-closing (wormholes tear down) or purely transient (corrupt
   beacons are rejected by verification, forged frames and floods leave no
   control-plane state), so the shared-net reuse discipline still holds:
   each case hands the fabric back healed. *)

let net_mixed = lazy (Sciera.Network.create ~per_origin:8 ~verify_pcbs:true ())
let pairs_mixed = lazy (reachable_pairs (Lazy.force net_mixed))

let cores =
  lazy
    (Array.of_list
       (List.filter_map
          (fun (a : Sciera.Topology.as_info) ->
            if a.Sciera.Topology.core then Some a.Sciera.Topology.ia else None)
          Sciera.Topology.ases))

let leaves =
  lazy
    (Array.of_list
       (List.filter_map
          (fun (a : Sciera.Topology.as_info) ->
            if a.Sciera.Topology.core then None else Some a.Sciera.Topology.ia)
          Sciera.Topology.ases))

(* Adversary specs follow the fault-spec idiom: plain small ints mapped
   onto bounded, always-valid campaigns opening no earlier than 0.5 s and
   closing before the storm horizon. *)
type adv_spec = int * (int * int * int)

let to_campaign ((shape, (a_q, b_q, mag_q)) : adv_spec) =
  let cores = Lazy.force cores and leaves = Lazy.force leaves in
  let core i = cores.(i mod Array.length cores) in
  let leaf i = leaves.(i mod Array.length leaves) in
  let from_s = 0.5 +. (0.04 *. float_of_int (a_q mod 100)) in
  let until_s = from_s +. 0.5 +. (0.05 *. float_of_int (b_q mod 100)) in
  match shape mod 5 with
  | 0 ->
      let a = core a_q and b = core (a_q + 1) in
      if Scion_addr.Ia.equal a b then Adversary.nothing
      else Adversary.wormhole ~a ~b ~from_s ~to_s:until_s
  | 1 ->
      Adversary.beacon_corruption ~compromised:(core a_q) ~from_s ~until_s ~period_s:0.7
        ~count:(1 + (mag_q mod 4))
  | 2 ->
      Adversary.mac_forgery ~compromised:(core a_q) ~from_s ~until_s ~period_s:0.9
        ~count:(1 + (mag_q mod 3))
  | 3 ->
      Adversary.reflection ~reflector:(core a_q) ~victim:(leaf b_q) ~from_s ~until_s
        ~period_s:0.8
        ~count:(5 + (mag_q mod 20))
  | _ ->
      Adversary.flood ~attacker:(core a_q) ~target:(leaf b_q) ~from_s ~until_s ~period_s:1.1
        ~packets:(20 + (mag_q mod 80))
        ~duplicate_pct:(mag_q mod 101)

let mixed_property (pair_idx, seed, fault_specs, adv_specs) =
  let net = Lazy.force net_mixed in
  let fabric = Sciera.Network.scion_fabric net in
  let pairs = Lazy.force pairs_mixed in
  let src, dst = pairs.(pair_idx mod Array.length pairs) in
  let engine = Netsim.Engine.create () in
  let injector =
    Sciera.Network.inject net ~engine
      ~rng:(Rng.of_label (Int64.of_int seed) "chaos.fault")
      (Scenario.seq (List.map (to_scenario fabric) fault_specs))
  in
  let adv, _stats =
    Sciera.Network.attach_adversary net ~engine
      ~rng:(Rng.of_label (Int64.of_int seed) "fault.adv")
      ~defended:true
      (Adversary.seq (List.map to_campaign adv_specs))
  in
  let latency_of = Sciera.Network.scion_rtt_base net in
  let transport path ~payload:_ =
    match Sciera.Network.scion_rtt_sample net path with
    | `Rtt ms -> Pan.Conn.Sent { rtt_ms = ms }
    | `Lost -> Pan.Conn.Send_failed
  in
  let conn =
    match
      Pan.Conn.dial ~policy:Pan.default_policy ~latency_of ~transport
        ~paths:(Sciera.Network.paths net ~src ~dst)
        ~reprobe:
          (Scion_util.Backoff.make ~base_ms:500.0 (), Rng.of_label (Int64.of_int seed) "chaos.reprobe")
        ()
    with
    | Ok c -> c
    | Error e -> QCheck.Test.fail_reportf "dial failed before any fault: %s" e
  in
  let clock = ref 0.1 in
  while !clock < storm_horizon_s do
    Netsim.Engine.run engine ~until:!clock;
    (try ignore (Pan.Conn.send ~now:!clock conn ~payload:"chaos" : Pan.Conn.send_outcome)
     with e ->
       QCheck.Test.fail_reportf "send raised under mixed storm at t=%.2f: %s" !clock
         (Printexc.to_string e));
    clock := !clock +. 0.5
  done;
  Netsim.Engine.run engine;
  if Fault.Injector.fired injector <> List.length (Fault.Injector.events injector) then
    QCheck.Test.fail_reportf "fault scenario did not fully replay";
  if Fault.Injector.fired adv <> List.length (Fault.Injector.events adv) then
    QCheck.Test.fail_reportf "adversary campaign did not fully detach";
  (* Both injectors drained: the fabric is healed and the adversary gone;
     delivery must come back within the re-probe budget. *)
  let rec recovers attempts now =
    if attempts = 0 then false
    else
      match
        try Pan.Conn.send ~now conn ~payload:"recovery"
        with e ->
          QCheck.Test.fail_reportf "send raised after adversary detach: %s"
            (Printexc.to_string e)
      with
      | Pan.Conn.Sent _ -> true
      | Pan.Conn.Send_failed -> recovers (attempts - 1) (now +. 1.0)
  in
  if not (recovers 120 storm_horizon_s) then
    QCheck.Test.fail_reportf "delivery did not recover after the adversary detached";
  true

let mixed_soak =
  let fault_arb =
    QCheck.(pair (pair small_nat small_nat) (triple small_nat small_nat small_nat))
  in
  let adv_arb = QCheck.(pair small_nat (triple small_nat small_nat small_nat)) in
  QCheck.Test.make
    ~name:"mixed fault+adversary storms: send total, delivery recovers after detach" ~count:15
    QCheck.(
      quad small_nat small_nat
        (list_of_size Gen.(1 -- 3) fault_arb)
        (list_of_size Gen.(1 -- 3) adv_arb))
    mixed_property

(* Attaching an adversary must not perturb a single workload draw: two
   same-seed networks — one quiet, one that has absorbed a full campaign —
   produce byte-identical rtt-sample sequences afterwards. *)
let test_adversary_rng_isolation () =
  let sample_seq net =
    let pairs = reachable_pairs net in
    let src, dst = pairs.(0) in
    let path = List.hd (Sciera.Network.paths net ~src ~dst) in
    List.init 64 (fun _ ->
        match Sciera.Network.scion_rtt_sample net path with
        | `Rtt ms -> Printf.sprintf "%.6f" ms
        | `Lost -> "lost")
  in
  let seed = 0x5EED_C4A05L in
  let quiet = Sciera.Network.create ~seed ~per_origin:8 ~verify_pcbs:true () in
  let attacked = Sciera.Network.create ~seed ~per_origin:8 ~verify_pcbs:true () in
  let cores = Lazy.force cores and leaves = Lazy.force leaves in
  let campaign =
    Adversary.(
      wormhole ~a:cores.(0) ~b:cores.(1) ~from_s:1.0 ~to_s:3.0
      ++ beacon_corruption ~compromised:cores.(0) ~from_s:1.0 ~until_s:4.0 ~period_s:1.0
           ~count:4
      ++ flood ~attacker:cores.(1) ~target:leaves.(0) ~from_s:2.0 ~until_s:4.0 ~period_s:1.0
           ~packets:50 ~duplicate_pct:30)
  in
  let engine = Netsim.Engine.create () in
  let adv, _stats =
    Sciera.Network.attach_adversary attacked ~engine
      ~rng:(Rng.of_label seed "fault.adv")
      ~defended:true campaign
  in
  Netsim.Engine.run engine;
  Alcotest.(check int)
    "campaign drained"
    (List.length (Fault.Injector.events adv))
    (Fault.Injector.fired adv);
  Alcotest.(check (list string)) "workload draws identical" (sample_seq quiet)
    (sample_seq attacked)

let () =
  Alcotest.run "chaos"
    [
      ( "soak",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x9a7a |]) chaos_soak;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x9a7b |]) mixed_soak;
          Alcotest.test_case "adversary leaves workload draws untouched" `Quick
            test_adversary_rng_isolation;
        ] );
    ]
