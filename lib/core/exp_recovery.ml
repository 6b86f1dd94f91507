(* New recovery figure: time-to-recover CDFs after a link failure on the
   preferred path, with the self-healing stack (SCMP revocation at the
   daemon + capped-exponential re-probe in the connection) versus a
   baseline that only has silent ack timeouts. Each trial kills one link
   of the current best path via the fault injector, measures the time from
   fault onset to the first successful send, then watches whether the
   connection returns to the preferred path after repair. *)

module Ia = Scion_addr.Ia
module Rng = Scion_util.Rng
module Backoff = Scion_util.Backoff
module Stats = Scion_util.Stats
module Table = Scion_util.Table
module Mesh = Scion_controlplane.Mesh
module Combinator = Scion_controlplane.Combinator
module Router = Scion_dataplane.Router
module Daemon = Scion_endhost.Daemon
module Pan = Scion_endhost.Pan
module Engine = Netsim.Engine

type mode = Healed | Baseline

let mode_name = function Healed -> "healed" | Baseline -> "baseline"

type mode_result = {
  recovery_s : float array;  (** Per-trial time-to-recover, seconds. *)
  median_s : float;
  p90_s : float;
  returned_to_preferred : float;  (** Fraction back on the best path at end. *)
}

type result = {
  trials : int;
  healed : mode_result;
  baseline : mode_result;
  revocations : int;  (** Daemon revocations learnt across healed trials. *)
  evicted_paths : int;  (** Cached paths evicted by those revocations. *)
  reprobes : int;  (** Parked paths given another chance by the conns. *)
}

(* --- Cost model (simulated milliseconds; nothing sleeps) -------------- *)

let timeout_ms = 1000.0 (* silent-loss detection: ack timeout *)
let control_ms = 30.0 (* daemon round trip for a re-dial *)
let onset_s = 1.0
let settle_s = 45.0 (* post-repair window for the return-to-preferred check *)
let poll_s = 2.0 (* steady-state send cadence *)
let shortlist_n = 8 (* candidate paths a connection keeps *)

let sender_policy =
  Backoff.make ~base_ms:200.0 ~multiplier:2.0 ~cap_ms:3000.0 ~jitter:0.2 ()

let reprobe_policy =
  Backoff.make ~base_ms:500.0 ~multiplier:2.0 ~cap_ms:8000.0 ~jitter:0.1 ()

let fetch_policy = Backoff.make ~base_ms:100.0 ~multiplier:2.0 ~cap_ms:2000.0 ~jitter:0.2 ()

(* SCMP answer latency: the error travels back from the dropping router,
   so charge the round trip over the path prefix up to it — always below
   the full-path RTT and far below the silent-loss timeout. *)
let detect_ms net (fp : Combinator.fullpath) ~at =
  let rec prefix acc hops links =
    match (hops, links) with
    | (h : Scion_addr.Hop_pred.hop) :: _, _ when Ia.equal h.Scion_addr.Hop_pred.ia at -> acc
    | _ :: hs, l :: ls -> prefix (l :: acc) hs ls
    | _ :: _, [] | [], _ -> acc
  in
  let links = prefix [] fp.Combinator.interfaces (Network.path_links net fp) in
  Float.max 1.0 (2.0 *. Netsim.Net.path_base_latency (Network.scion_fabric net) links)

let rec take n = function [] -> [] | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let latency_policy = { Pan.default_policy with Pan.preferences = [ Pan.Latency ] }

(* --- One trial -------------------------------------------------------- *)

type trial = { t_src : Ia.t; t_dst : Ia.t; target : Netsim.Net.link_id; repair_after_s : float }

type trial_outcome = { time_to_recover_s : float; on_preferred : bool }

let measure net ~mode ~rng ~daemon_rng ~conn_rng (tr : trial) =
  let now0 = Network.now_unix net in
  let engine = Engine.create () in
  let scenario =
    Fault.Scenario.outage ~link:tr.target ~from_s:onset_s ~to_s:(onset_s +. tr.repair_after_s)
  in
  let injector = Network.inject net ~engine ~rng:(Rng.split rng) scenario in
  let daemon =
    match mode with
    | Healed ->
        Daemon.create ~ia:tr.t_src
          ~fetch:(fun ~dst -> Network.paths net ~src:tr.t_src ~dst)
          ~cache_ttl:600.0 ~revocation_ttl:10.0 ~retry:(fetch_policy, daemon_rng) ()
    | Baseline ->
        Daemon.create ~ia:tr.t_src
          ~fetch:(fun ~dst -> Network.paths net ~src:tr.t_src ~dst)
          ~cache_ttl:600.0 ()
  in
  let latency_of = Network.scion_rtt_base net in
  let clock = ref 0.0 in
  let cost = ref 0.0 in
  let transport path ~payload:_ =
    match Mesh.walk (Network.mesh net) ~now:(now0 +. !clock) path with
    | Mesh.Walk_delivered _ -> Pan.Conn.Sent { rtt_ms = latency_of path }
    | Mesh.Walk_dropped { at; reason } ->
        (match mode with
        | Baseline -> cost := !cost +. timeout_ms
        | Healed -> (
            match Router.scmp_answer (Mesh.router (Network.mesh net) at) reason with
            | Some scmp ->
                ignore (Daemon.handle_scmp daemon ~now:(now0 +. !clock) scmp);
                cost := !cost +. detect_ms net path ~at
            | None -> cost := !cost +. timeout_ms));
        Pan.Conn.Send_failed
  in
  let dial paths =
    let shortlist = take shortlist_n (Pan.sort_paths latency_policy ~latency_of paths) in
    match mode with
    | Healed ->
        Pan.Conn.dial ~reprobe:(reprobe_policy, conn_rng) ~policy:latency_policy ~latency_of
          ~transport ~paths:shortlist ()
    | Baseline ->
        Pan.Conn.dial ~policy:latency_policy ~latency_of ~transport ~paths:shortlist ()
  in
  let paths0, _ = Daemon.lookup daemon ~now:now0 ~dst:tr.t_dst in
  let conn = ref (Result.to_option (dial paths0)) in
  let preferred =
    match !conn with
    | Some c -> (Pan.Conn.current_path c).Combinator.fingerprint
    | None -> ""
  in
  let t_end = onset_s +. tr.repair_after_s +. settle_s in
  let recovery = ref None in
  let failures = ref 0 in
  let last_path = ref "" in
  clock := onset_s +. 0.05;
  while !clock < t_end do
    Engine.run engine ~until:!clock;
    cost := 0.0;
    (match !conn with
    | Some _ -> ()
    | None ->
        (* The connection ran out of candidates: re-dial from the daemon,
           which is where revocations (healed) pay off — dead siblings are
           already pruned from the answer. *)
        cost := !cost +. control_ms;
        let live, _ = Daemon.lookup daemon ~now:(now0 +. !clock) ~dst:tr.t_dst in
        conn := Result.to_option (dial live));
    let outcome =
      match !conn with
      | None -> Pan.Conn.Send_failed
      | Some c ->
          let o =
            match mode with
            | Healed -> Pan.Conn.send ~now:!clock c ~payload:"probe"
            | Baseline -> Pan.Conn.send c ~payload:"probe"
          in
          (match (o, mode) with
          | Pan.Conn.Send_failed, Baseline when Pan.Conn.candidates c = 0 -> conn := None
          | (Pan.Conn.Send_failed | Pan.Conn.Sent _), (Healed | Baseline) -> ());
          o
    in
    match outcome with
    | Pan.Conn.Sent { rtt_ms } ->
        let t_done = !clock +. ((!cost +. rtt_ms) /. 1000.0) in
        if Option.is_none !recovery then recovery := Some (t_done -. onset_s);
        (match !conn with
        | Some c -> last_path := (Pan.Conn.current_path c).Combinator.fingerprint
        | None -> ());
        failures := 0;
        clock := Float.max t_done (!clock +. poll_s)
    | Pan.Conn.Send_failed ->
        incr failures;
        let delay = Backoff.delay_ms sender_policy ~rng ~attempt:!failures in
        clock := !clock +. ((!cost +. delay) /. 1000.0)
  done;
  (* Drain the injector so the shared network leaves the trial repaired. *)
  Engine.run engine;
  ignore (Fault.Injector.fired injector);
  let stats =
    ( Daemon.revocations daemon,
      Daemon.evicted_paths daemon,
      match !conn with Some c -> Pan.Conn.reprobes c | None -> 0 )
  in
  ( {
      time_to_recover_s =
        (match !recovery with Some s -> s | None -> t_end -. onset_s (* censored *));
      on_preferred = (not (String.equal preferred "")) && String.equal !last_path preferred;
    },
    stats )

(* --- The experiment --------------------------------------------------- *)

let summarize outcomes =
  let recovery_s = Array.map (fun o -> o.time_to_recover_s) outcomes in
  let returned =
    Array.fold_left (fun acc o -> if o.on_preferred then acc + 1 else acc) 0 outcomes
  in
  {
    recovery_s;
    median_s = Stats.median recovery_s;
    p90_s = Stats.percentile recovery_s 90.0;
    returned_to_preferred = float_of_int returned /. float_of_int (Array.length outcomes);
  }

let seed = 0x5EC0_4E4FL
let trials = 40

let run ~telemetry =
  (* The fault stream is derived by label, never split from a workload
     stream: attaching the injector cannot perturb any workload draw. *)
  let fault_rng = Rng.of_label seed "fault" in
  let sender_rng = Rng.of_label seed "sender" in
  let net = Network.create ~seed ~per_origin:8 ~telemetry () in
  let ias = List.map (fun (a : Topology.as_info) -> a.Topology.ia) Topology.ases in
  let pairs =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if (not (Ia.equal a b)) && Network.paths net ~src:a ~dst:b <> [] then Some (a, b)
            else None)
          ias)
      ias
    |> Array.of_list
  in
  let make_trial () =
    let t_src, t_dst = Rng.pick fault_rng pairs in
    let paths = Network.paths net ~src:t_src ~dst:t_dst in
    let best =
      match Pan.sort_paths latency_policy ~latency_of:(Network.scion_rtt_base net) paths with
      | p :: _ -> p
      | [] -> invalid_arg "Exp_recovery: pair without paths"
    in
    let links = Array.of_list (Network.path_links net best) in
    { t_src; t_dst; target = Rng.pick fault_rng links; repair_after_s = 12.0 +. Rng.float fault_rng 28.0 }
  in
  let plan = Array.init trials (fun _ -> make_trial ()) in
  let run_mode mode =
    let revocations = ref 0 and evicted = ref 0 and reprobes = ref 0 in
    let outcomes =
      Array.map
        (fun tr ->
          let outcome, (r, e, p) =
            measure net ~mode ~rng:(Rng.split sender_rng) ~daemon_rng:(Rng.split sender_rng)
              ~conn_rng:(Rng.split sender_rng) tr
          in
          revocations := !revocations + r;
          evicted := !evicted + e;
          reprobes := !reprobes + p;
          outcome)
        plan
    in
    (summarize outcomes, !revocations, !evicted, !reprobes)
  in
  let healed, revocations, evicted_paths, reprobes = run_mode Healed in
  let baseline, _, _, _ = run_mode Baseline in
  let result = { trials; healed; baseline; revocations; evicted_paths; reprobes } in
  let module M = Telemetry.Metrics in
  let reg = Obs.registry telemetry in
  List.iter
    (fun (mode, mr) ->
      let s = M.summary reg ~labels:[ ("mode", mode_name mode) ] "exp.recovery.time_to_recover_s" in
      Array.iter (M.record s) mr.recovery_s)
    [ (Healed, healed); (Baseline, baseline) ];
  result

(* --- Rendering -------------------------------------------------------- *)

let print_recovery b r =
  Printf.bprintf b "== Recovery: time to first successful send after link failure (%d trials) ==\n"
    r.trials;
  let row mode mr =
    [
      mode_name mode;
      Table.fmt_float (Stats.percentile mr.recovery_s 25.0);
      Table.fmt_float mr.median_s;
      Table.fmt_float (Stats.percentile mr.recovery_s 75.0);
      Table.fmt_float mr.p90_s;
      Table.fmt_pct mr.returned_to_preferred;
    ]
  in
  Buffer.add_string b (Table.render
    ~header:[ "mode"; "p25 s"; "median s"; "p75 s"; "p90 s"; "back on preferred" ]
    ~rows:[ row Healed r.healed; row Baseline r.baseline ]);
  Printf.bprintf b
    "healed median %s s vs baseline %s s: SCMP revocation + backoff re-probe cut \
     time-to-recover %sx; %d revocations evicted %d cached paths, %d re-probes\n\n"
    (Table.fmt_float r.healed.median_s)
    (Table.fmt_float r.baseline.median_s)
    (Table.fmt_float (r.baseline.median_s /. Float.max 1e-9 r.healed.median_s))
    r.revocations r.evicted_paths r.reprobes
