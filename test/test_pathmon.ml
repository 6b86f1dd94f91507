(* lib/pathmon tests: RFC 6298-style estimator math, selector hysteresis
   (including the asymmetric return-to-preferred), prober pacing/backoff,
   the shared per-destination quality cache, RNG isolation of a live
   prober from the workload stream, byte-stable seeded telemetry, and
   end-to-end soft failover in Pan.Conn under a latency window. *)

module Rng = Scion_util.Rng
module Est = Pathmon.Estimator
module Sel = Pathmon.Selector
module M = Telemetry.Metrics
module Pan = Scion_endhost.Pan
module Combinator = Scion_controlplane.Combinator
module Ia = Scion_addr.Ia

let feq = Alcotest.(check (float 1e-9))

(* --- Estimator --------------------------------------------------------- *)

let test_estimator_math () =
  let est = Est.create () in
  Alcotest.(check bool) "no estimate before first reply" true (Est.rtt_ewma_ms est = None);
  Est.observe est (`Rtt 100.0);
  feq "first sample seeds the EWMA" 100.0 (Option.get (Est.rtt_ewma_ms est));
  feq "first sample has no deviation" 0.0 (Est.rtt_deviation_ms est);
  Est.observe est (`Rtt 200.0);
  (* RFC 6298 order (dev before srtt): dev = 7/8*0 + 1/8*|100-200| = 12.5,
     srtt = 3/4*100 + 1/4*200 = 125. *)
  feq "deviation after second sample" 12.5 (Est.rtt_deviation_ms est);
  feq "srtt after second sample" 125.0 (Option.get (Est.rtt_ewma_ms est));
  Est.observe est `Lost;
  feq "a loss leaves the EWMA untouched" 125.0 (Option.get (Est.rtt_ewma_ms est));
  feq "windowed loss rate" (1.0 /. 3.0) (Est.loss_rate est);
  Est.observe est (`Rtt 105.0);
  (* dev = 7/8*12.5 + 1/8*|125-105| = 13.4375, srtt = 3/4*125 + 1/4*105 = 120. *)
  feq "deviation decays" 13.4375 (Est.rtt_deviation_ms est);
  feq "srtt converges" 120.0 (Option.get (Est.rtt_ewma_ms est));
  feq "loss rate over the window" 0.25 (Est.loss_rate est);
  Alcotest.(check int) "probe count" 4 (Est.probes est)

let test_estimator_window_and_validation () =
  let config = { Est.rtt_alpha = 0.25; dev_beta = 0.125; loss_window = 4 } in
  let est = Est.create ~config () in
  List.iter (Est.observe est) [ `Lost; `Lost; `Lost; `Lost ];
  feq "all lost" 1.0 (Est.loss_rate est);
  List.iter (Est.observe est) [ `Rtt 10.0; `Rtt 10.0; `Rtt 10.0; `Rtt 10.0 ];
  feq "old losses roll out of the ring" 0.0 (Est.loss_rate est);
  Alcotest.(check int) "probe count survives the window" 8 (Est.probes est);
  Alcotest.check_raises "negative RTT rejected"
    (Invalid_argument "Estimator.observe: RTT must be finite and >= 0 (got -1)")
    (fun () -> Est.observe est (`Rtt (-1.0)));
  Alcotest.check_raises "nan RTT rejected"
    (Invalid_argument "Estimator.observe: RTT must be finite and >= 0 (got nan)")
    (fun () -> Est.observe est (`Rtt Float.nan));
  Alcotest.check_raises "zero alpha rejected"
    (Invalid_argument "Estimator.make_config: rtt_alpha must be in (0, 1] (got 0)")
    (fun () -> ignore (Est.create ~config:{ config with Est.rtt_alpha = 0.0 } ()))

(* --- Selector ---------------------------------------------------------- *)

(* A selector exporting its switch counters, and a reader for them. *)
let counted_selector () =
  let reg = M.create () in
  (Sel.create ~metrics:reg (), reg)

let count reg name =
  List.fold_left
    (fun acc (smp : M.sample) ->
      match smp.M.value with
      | M.Counter n when String.equal smp.M.sample_name name -> acc + n
      | _ -> acc)
    0 (M.snapshot reg)

let switches reg = count reg "pathmon.selector.switches"
let returns reg = count reg "pathmon.selector.returns"

let cand fp static est = { Sel.fingerprint = fp; static_ms = static; estimator = est }

let fed rtt n =
  let e = Est.create () in
  for _ = 1 to n do
    Est.observe e (`Rtt rtt)
  done;
  e

let test_selector_score_warmup () =
  let cfg = Sel.default_config in
  feq "no estimator falls back to static" 40.0 (Sel.score cfg (cand "a" 40.0 None));
  feq "under min_probes the estimator is not trusted" 40.0
    (Sel.score cfg (cand "a" 40.0 (Some (fed 200.0 2))));
  feq "a warmed estimator takes over" 200.0 (Sel.score cfg (cand "a" 40.0 (Some (fed 200.0 10))));
  let lossy = Est.create () in
  List.iter (Est.observe lossy) [ `Rtt 50.0; `Rtt 50.0; `Rtt 50.0; `Lost ];
  feq "loss rate charges the penalty" (50.0 +. (250.0 *. 0.25))
    (Sel.score cfg (cand "a" 40.0 (Some lossy)))

let test_selector_switch_hysteresis () =
  let sel, reg = counted_selector () in
  let degraded =
    [ cand "pref" 40.0 (Some (fed 300.0 10)); cand "alt" 50.0 (Some (fed 55.0 10)) ]
  in
  Alcotest.(check string) "first degraded decision only arms the streak" "pref"
    (Sel.choose sel ~candidates:degraded ~active:"pref");
  Alcotest.(check string) "second consecutive decision switches" "alt"
    (Sel.choose sel ~candidates:degraded ~active:"pref");
  Alcotest.(check int) "one switch" 1 (switches reg);
  Alcotest.(check int) "not a return (alt is not statically preferred)" 0 (returns reg)

let test_selector_margin_blocks_small_gain () =
  let sel, reg = counted_selector () in
  (* alt's 44 ms beats pref's 46 ms but not by the 10% margin (44 > 41.4):
     inside the hysteresis band the active path is kept forever. *)
  let c = [ cand "pref" 40.0 (Some (fed 46.0 10)); cand "alt" 50.0 (Some (fed 44.0 10)) ] in
  for _ = 1 to 10 do
    Alcotest.(check string) "inside the margin keeps active" "pref"
      (Sel.choose sel ~candidates:c ~active:"pref")
  done;
  Alcotest.(check int) "no switches" 0 (switches reg)

let test_selector_asymmetric_return () =
  (* Primary-path affinity: the statically-preferred candidate wins back on
     a bare sustained advantage (45 vs 46 — far inside the 10% margin a
     non-preferred challenger would need). *)
  let recovered =
    [ cand "pref" 40.0 (Some (fed 45.0 10)); cand "alt" 50.0 (Some (fed 46.0 10)) ]
  in
  let sel, reg = counted_selector () in
  Alcotest.(check string) "first recovered decision holds" "alt"
    (Sel.choose sel ~candidates:recovered ~active:"alt");
  Alcotest.(check string) "then returns to preferred without the margin" "pref"
    (Sel.choose sel ~candidates:recovered ~active:"alt");
  Alcotest.(check int) "counted as a return" 1 (returns reg);
  Alcotest.(check int) "and as a switch" 1 (switches reg)

let test_selector_active_gone () =
  let sel = Sel.create () in
  let c = [ cand "a" 40.0 None; cand "b" 50.0 None ] in
  Alcotest.(check string) "vanished active switches immediately" "a"
    (Sel.choose sel ~candidates:c ~active:"gone");
  Alcotest.check_raises "empty candidates rejected"
    (Invalid_argument "Selector.choose: empty candidate list") (fun () ->
      ignore (Sel.choose sel ~candidates:[] ~active:"a"))

(* --- Prober ------------------------------------------------------------ *)

let test_prober_pacing_and_backoff () =
  let counts = Hashtbl.create 4 in
  let bump fp = Hashtbl.replace counts fp (1 + Option.value ~default:0 (Hashtbl.find_opt counts fp)) in
  let rng = Rng.of_label 11L "test.prober" in
  (* jitter 0: the healthy cadence is exactly interval_ms and the backoff
     draws nothing, so due times are exact. *)
  let pr =
    Pathmon.Prober.create ~interval_ms:50.0 ~jitter:0.0 ~rng
      ~probe:(fun ~fingerprint ->
        bump fingerprint;
        if String.equal fingerprint "bad" then `Lost else `Rtt 20.0)
      ()
  in
  let bad = Est.create () in
  Pathmon.Prober.watch pr ~fingerprint:"good" ~estimator:(Est.create ());
  Pathmon.Prober.watch pr ~fingerprint:"bad" ~estimator:bad;
  Alcotest.(check int) "both due on the first tick" 2 (Pathmon.Prober.tick pr ~now_s:0.0);
  Alcotest.(check int) "nothing due before the interval" 0 (Pathmon.Prober.tick pr ~now_s:0.01);
  Alcotest.(check int) "both due at the interval" 2 (Pathmon.Prober.tick pr ~now_s:0.05);
  (* bad now has 2 consecutive losses: backed off to 100 ms (due 0.15)
     while good keeps the 50 ms cadence (due 0.10). *)
  Alcotest.(check int) "lossy path backs off" 1 (Pathmon.Prober.tick pr ~now_s:0.10);
  Alcotest.(check int) "good probed each interval" 3 (Hashtbl.find counts "good");
  Alcotest.(check int) "bad skipped the backed-off tick" 2 (Hashtbl.find counts "bad");
  Alcotest.(check int) "probes_sent totals" 5 (Pathmon.Prober.probes_sent pr);
  feq "outcomes reached the estimator" 1.0 (Est.loss_rate bad)

(* --- Cache ------------------------------------------------------------- *)

let test_cache () =
  let cache = Pathmon.Cache.create () in
  Alcotest.(check bool) "peek never creates" true
    (Pathmon.Cache.peek cache ~dst:"71-2:0:5c" ~fingerprint:"fp1" = None);
  let e1 = Pathmon.Cache.find cache ~dst:"71-2:0:5c" ~fingerprint:"fp1" in
  Est.observe e1 (`Rtt 30.0);
  Alcotest.(check bool) "find memoises per (dst, path)" true
    (e1 == Pathmon.Cache.find cache ~dst:"71-2:0:5c" ~fingerprint:"fp1");
  Alcotest.(check bool) "peek sees the shared estimator" true
    (match Pathmon.Cache.peek cache ~dst:"71-2:0:5c" ~fingerprint:"fp1" with
    | Some e -> e == e1
    | None -> false);
  let e0 = Pathmon.Cache.find cache ~dst:"71-2:0:5c" ~fingerprint:"fp0" in
  let ez = Pathmon.Cache.find cache ~dst:"71-1916" ~fingerprint:"fpz" in
  Alcotest.(check bool) "one estimator per (dst, path)" true (e0 != e1 && ez != e1 && ez != e0);
  Alcotest.(check bool) "keyed by destination too" true
    (Pathmon.Cache.peek cache ~dst:"71-1916" ~fingerprint:"fp1" = None)

(* --- Determinism ------------------------------------------------------- *)

(* A synthetic seeded probing campaign must serialise byte-identically
   across two runs — the property the pathmon golden leans on. *)
let campaign_snapshot () =
  let reg = M.create () in
  let rng = Rng.of_label 0xCAFEL "test.pathmon.campaign" in
  let world = Rng.split rng in
  let fps = [ "alpha"; "beta"; "gamma" ] in
  let ests = List.map (fun fp -> (fp, Est.create ())) fps in
  let pr =
    Pathmon.Prober.create ~metrics:reg ~interval_ms:50.0 ~rng
      ~probe:(fun ~fingerprint:_ ->
        if Rng.float world 1.0 < 0.2 then `Lost else `Rtt (20.0 +. Rng.float world 30.0))
      ()
  in
  List.iter (fun (fp, estimator) -> Pathmon.Prober.watch pr ~fingerprint:fp ~estimator) ests;
  let sel = Sel.create ~metrics:reg () in
  for i = 1 to 200 do
    ignore (Pathmon.Prober.tick pr ~now_s:(0.05 *. float_of_int i) : int);
    let candidates = List.map (fun (fp, est) -> cand fp 25.0 (Some est)) ests in
    ignore (Sel.choose sel ~candidates ~active:"alpha" : string)
  done;
  Telemetry.Export.to_json reg

let test_snapshot_byte_stable () =
  let a = campaign_snapshot () and b = campaign_snapshot () in
  Alcotest.(check bool) "snapshot is non-trivial" true (String.length a > 200);
  Alcotest.(check string) "two seeded campaigns serialise byte-identically" a b

(* Attaching (and fully running) a prober over the live fabric must leave
   the network's workload stream untouched: probe RTT samples go through
   Network.scmp_probe with the prober's own stream. *)
let test_prober_rng_isolation () =
  let draws with_prober =
    let net = Sciera.Network.create ~per_origin:4 ~verify_pcbs:false () in
    let src = Ia.of_string "71-2:0:42" and dst = Ia.of_string "71-2:0:4d" in
    let paths = Sciera.Network.paths net ~src ~dst in
    Alcotest.(check bool) "pair has paths" true (paths <> []);
    if with_prober then begin
      let engine = Netsim.Engine.create () in
      let probe_rng = Rng.of_label 5L "pathmon.probe" in
      let sample_rng = Rng.split probe_rng in
      let by_fp = Hashtbl.create 8 in
      List.iter (fun (p : Combinator.fullpath) -> Hashtbl.replace by_fp p.Combinator.fingerprint p) paths;
      let pr =
        Pathmon.Prober.create ~interval_ms:100.0 ~rng:probe_rng
          ~probe:(fun ~fingerprint ->
            match Hashtbl.find_opt by_fp fingerprint with
            | Some fp -> Sciera.Network.scmp_probe net ~rng:sample_rng fp
            | None -> `Lost)
          ()
      in
      List.iter
        (fun (p : Combinator.fullpath) ->
          Pathmon.Prober.watch pr ~fingerprint:p.Combinator.fingerprint ~estimator:(Est.create ()))
        paths;
      Pathmon.Prober.attach pr ~engine ~until_s:5.0;
      Netsim.Engine.run engine;
      Alcotest.(check bool) "prober actually probed" true (Pathmon.Prober.probes_sent pr > 0)
    end;
    let workload = Sciera.Network.rng net in
    Array.init 64 (fun _ -> Rng.int workload max_int)
  in
  Alcotest.(check (array int))
    "workload draws identical with and without a live prober" (draws false) (draws true)

(* --- End-to-end soft failover ------------------------------------------ *)

let latency_policy = { Pan.default_policy with Pan.preferences = [ Pan.Latency ] }

let rec take n = function [] -> [] | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

(* First AS pair (in topology order) whose preferred path has a link the
   runner-up avoids — a degradation there leaves a clean escape route. *)
let find_soft_failover_setup net =
  let latency_of = Sciera.Network.scion_rtt_base net in
  let ias = List.map (fun (a : Sciera.Topology.as_info) -> a.Sciera.Topology.ia) Sciera.Topology.ases in
  let candidates =
    List.concat_map (fun a -> List.filter_map (fun b -> if Ia.equal a b then None else Some (a, b)) ias) ias
  in
  let rec go = function
    | [] -> Alcotest.fail "no AS pair with an escapable degradation"
    | (src, dst) :: rest -> (
        let ranked =
          take 6 (Pan.sort_paths latency_policy ~latency_of (Sciera.Network.paths net ~src ~dst))
        in
        match ranked with
        | best :: second :: _ -> (
            let second_links = Sciera.Network.path_links net second in
            match
              List.filter (fun l -> not (List.mem l second_links)) (Sciera.Network.path_links net best)
            with
            | target :: _ -> (src, dst, ranked, target)
            | [] -> go rest)
        | _ -> go rest)
  in
  go candidates

let test_pan_soft_failover () =
  let net = Sciera.Network.create ~per_origin:8 ~verify_pcbs:false () in
  let src, dst, shortlist, target = find_soft_failover_setup net in
  ignore src;
  let latency_of = Sciera.Network.scion_rtt_base net in
  let engine = Netsim.Engine.create () in
  let onset_s = 2.0 and recover_s = 12.0 and t_end = 24.0 in
  let injector =
    Sciera.Network.inject net ~engine ~rng:(Rng.of_label 7L "fault")
      (Fault.Scenario.window ~link:target ~from_s:onset_s ~to_s:recover_s ~extra_ms:200.0)
  in
  let quality = Pathmon.Cache.create () in
  let dst_key = Ia.to_string dst in
  let probe_rng = Rng.of_label 7L "pathmon.probe" in
  let sample_rng = Rng.split probe_rng in
  let by_fp = Hashtbl.create 8 in
  List.iter (fun (p : Combinator.fullpath) -> Hashtbl.replace by_fp p.Combinator.fingerprint p) shortlist;
  let pr =
    Pathmon.Prober.create ~interval_ms:150.0 ~rng:probe_rng
      ~probe:(fun ~fingerprint ->
        match Hashtbl.find_opt by_fp fingerprint with
        | Some fp -> Sciera.Network.scmp_probe net ~rng:sample_rng fp
        | None -> `Lost)
      ()
  in
  List.iter
    (fun (p : Combinator.fullpath) ->
      Pathmon.Prober.watch pr ~fingerprint:p.Combinator.fingerprint
        ~estimator:(Pathmon.Cache.find quality ~dst:dst_key ~fingerprint:p.Combinator.fingerprint))
    shortlist;
  Pathmon.Prober.attach pr ~engine ~until_s:t_end;
  (* Soft transport: a latency window still delivers, so nothing here ever
     triggers hard failover — any path change is the selector's. *)
  let transport path ~payload:_ =
    match Sciera.Network.scion_rtt_sample net path with
    | `Rtt ms -> Pan.Conn.Sent { rtt_ms = ms }
    | `Lost -> Pan.Conn.Sent { rtt_ms = 1000.0 +. latency_of path }
  in
  let adaptive =
    {
      Pan.Conn.selector = Sel.create ~config:(Sel.make_config ~dev_weight:1.0 ()) ();
      quality = (fun fp -> Pathmon.Cache.peek quality ~dst:dst_key ~fingerprint:fp);
    }
  in
  let conn =
    match
      Pan.Conn.dial ~adaptive ~policy:latency_policy ~latency_of ~transport ~paths:shortlist ()
    with
    | Ok c -> c
    | Error e -> Alcotest.fail ("dial failed: " ^ e)
  in
  let preferred = (Pan.Conn.current_path conn).Combinator.fingerprint in
  let escaped_during_window = ref false in
  let clock = ref 0.1 in
  while !clock < t_end do
    Netsim.Engine.run engine ~until:!clock;
    (match Pan.Conn.send ~now:!clock conn ~payload:"soak" with
    | Pan.Conn.Sent _ -> ()
    | Pan.Conn.Send_failed -> Alcotest.fail "soft transport must never hard-fail");
    if
      !clock >= onset_s && !clock < recover_s
      && not (String.equal (Pan.Conn.current_path conn).Combinator.fingerprint preferred)
    then escaped_during_window := true;
    clock := !clock +. 0.25
  done;
  Netsim.Engine.run engine;
  Alcotest.(check bool) "window fully replayed" true
    (Fault.Injector.fired injector = List.length (Fault.Injector.events injector));
  Alcotest.(check bool) "switched off the degraded path during the window" true
    !escaped_during_window;
  Alcotest.(check string) "back on the preferred path after recovery + hysteresis" preferred
    (Pan.Conn.current_path conn).Combinator.fingerprint;
  Alcotest.(check bool) "at least one switch out and one return" true
    (Pan.Conn.soft_switches conn >= 2)

let () =
  Alcotest.run "pathmon"
    [
      ( "estimator",
        [
          Alcotest.test_case "ewma and deviation math" `Quick test_estimator_math;
          Alcotest.test_case "loss window and validation" `Quick test_estimator_window_and_validation;
        ] );
      ( "selector",
        [
          Alcotest.test_case "score warmup and loss penalty" `Quick test_selector_score_warmup;
          Alcotest.test_case "switch needs margin + hold" `Quick test_selector_switch_hysteresis;
          Alcotest.test_case "margin blocks small gains" `Quick test_selector_margin_blocks_small_gain;
          Alcotest.test_case "asymmetric return to preferred" `Quick test_selector_asymmetric_return;
          Alcotest.test_case "vanished active path" `Quick test_selector_active_gone;
        ] );
      ( "prober",
        [ Alcotest.test_case "pacing and loss backoff" `Quick test_prober_pacing_and_backoff ] );
      ( "cache", [ Alcotest.test_case "shared quality cache" `Quick test_cache ] );
      ( "determinism",
        [
          Alcotest.test_case "byte-stable seeded snapshots" `Quick test_snapshot_byte_stable;
          Alcotest.test_case "prober RNG isolation" `Slow test_prober_rng_isolation;
        ] );
      ( "pan",
        [ Alcotest.test_case "soft failover under latency window" `Slow test_pan_soft_failover ] );
    ]
