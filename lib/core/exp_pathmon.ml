(* The pathmon figure: adaptive (prober + selector driven) vs static path
   selection under soft degradation. Each trial injects a latency window or
   a loss burst on a link of the connection's preferred path — degradation
   that still *delivers*, so hard-down failover never triggers — and
   measures how long the workload keeps riding the degraded path and how
   much its latency inflates. The adaptive connection runs an SCMP-echo
   prober over its candidate set, feeds per-path EWMA/loss estimators in
   the daemon's shared quality cache, and lets the selector soft-fail over
   once the active path's score degrades past hysteresis (and return after
   recovery); the static connection keeps the dial-time ranking. *)

module Ia = Scion_addr.Ia
module Rng = Scion_util.Rng
module Stats = Scion_util.Stats
module Table = Scion_util.Table
module Combinator = Scion_controlplane.Combinator
module Daemon = Scion_endhost.Daemon
module Pan = Scion_endhost.Pan
module Engine = Netsim.Engine
module Net = Netsim.Net

type mode = Adaptive | Static

let mode_name = function Adaptive -> "adaptive" | Static -> "static"

type mode_result = {
  degraded_s : float array;  (** Per-trial time spent on a degraded path, s. *)
  median_degraded_s : float;
  p90_degraded_s : float;
  inflation : float array;  (** Per-trial mean in-window RTT / pre-fault RTT. *)
  median_inflation : float;
  returned_to_preferred : float;  (** Fraction back on the best path at end. *)
  soft_switches : int;
  probes : int;
}

type result = { trials : int; adaptive : mode_result; static_ : mode_result }

(* --- Cost model and cadences (simulated; nothing sleeps) --------------- *)

let onset_s = 2.0 (* degradation begins *)
let settle_s = 12.0 (* post-recovery window: estimators decay, conns return *)
let poll_s = 0.25 (* workload send cadence *)
let probe_interval_ms = 150.0
let timeout_ms = 1000.0 (* ack timeout charged per lost workload transmission *)
let retransmits = 3 (* workload transmission attempts before giving up *)
let shortlist_n = 6 (* candidate paths a connection keeps *)

let latency_policy = { Pan.default_policy with Pan.preferences = [ Pan.Latency ] }

(* Deviation weight 1 (not the default 2): the experiment's return-time
   budget is settle_s, and the slow beta = 1/8 deviation decay after a
   recovery transition dominates how fast the preferred path's score drops
   back under the alternative's. *)
let selector_config = Pathmon.Selector.make_config ~dev_weight:1.0 ()

let rec take n = function [] -> [] | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

(* --- Trials ------------------------------------------------------------ *)

type kind = Latency_window | Loss_burst

type trial = {
  t_src : Ia.t;
  t_dst : Ia.t;
  target : Net.link_id;  (** Degraded link: on the preferred path only. *)
  kind : kind;
  magnitude : float;  (** extra one-way ms, or extra loss probability. *)
  duration_s : float;
}

(* A path is degraded when any of its links carries an active fault effect
   — the ground truth the time-in-degraded metric integrates. *)
let path_degraded net (fp : Combinator.fullpath) =
  let fabric = Network.scion_fabric net in
  List.exists
    (fun l ->
      (not (Net.link_up fabric l))
      || Net.extra_latency fabric l > 0.0
      || Net.extra_loss fabric l > 0.0)
    (Network.path_links net fp)

let measure net ~mode ~metrics ~rng ~probe_rng (tr : trial) =
  let engine = Engine.create () in
  let scenario =
    let to_s = onset_s +. tr.duration_s in
    match tr.kind with
    | Latency_window ->
        Fault.Scenario.window ~link:tr.target ~from_s:onset_s ~to_s ~extra_ms:tr.magnitude
    | Loss_burst -> Fault.Scenario.burst ~link:tr.target ~from_s:onset_s ~to_s ~loss:tr.magnitude
  in
  let injector = Network.inject net ~engine ~rng:(Rng.split rng) scenario in
  let quality = Pathmon.Cache.create () in
  let daemon =
    Daemon.create ~ia:tr.t_src
      ~fetch:(fun ~dst -> Network.paths net ~src:tr.t_src ~dst)
      ~cache_ttl:600.0 ~quality ()
  in
  let latency_of = Network.scion_rtt_base net in
  let transport path ~payload:_ =
    (* Soft degradation still delivers: a lost transmission costs an ack
       timeout and is retransmitted over the same path, so escaping the
       degradation is entirely the selector's job, not hard failover's. *)
    let rec go attempt penalty =
      if attempt > retransmits then Pan.Conn.Sent { rtt_ms = penalty +. latency_of path }
      else
        match Network.scion_rtt_sample net path with
        | `Rtt ms -> Pan.Conn.Sent { rtt_ms = penalty +. ms }
        | `Lost -> go (attempt + 1) (penalty +. timeout_ms)
    in
    go 1 0.0
  in
  let paths0, _ = Daemon.lookup daemon ~now:(Network.now_unix net) ~dst:tr.t_dst in
  let shortlist = take shortlist_n (Pan.sort_paths latency_policy ~latency_of paths0) in
  let dst_key = Ia.to_string tr.t_dst in
  let t_end = onset_s +. tr.duration_s +. settle_s in
  let prober =
    match mode with
    | Static -> None
    | Adaptive ->
        let by_fp = Hashtbl.create 8 in
        List.iter
          (fun (p : Combinator.fullpath) -> Hashtbl.replace by_fp p.Combinator.fingerprint p)
          shortlist;
        let sample_rng = Rng.split probe_rng in
        let pr =
          Pathmon.Prober.create ~metrics ~interval_ms:probe_interval_ms
            ~rng:(Rng.split probe_rng)
            ~probe:(fun ~fingerprint ->
              match Hashtbl.find_opt by_fp fingerprint with
              | Some fp -> Network.scmp_probe net ~rng:sample_rng fp
              | None -> `Lost)
            ()
        in
        List.iter
          (fun (p : Combinator.fullpath) ->
            Pathmon.Prober.watch pr ~fingerprint:p.Combinator.fingerprint
              ~estimator:(Pathmon.Cache.find quality ~dst:dst_key ~fingerprint:p.Combinator.fingerprint))
          shortlist;
        Pathmon.Prober.attach pr ~engine ~until_s:t_end;
        Some pr
  in
  let conn =
    let dial_result =
      match mode with
      | Adaptive ->
          let adaptive =
            {
              Pan.Conn.selector = Pathmon.Selector.create ~metrics ~config:selector_config ();
              quality = (fun fp -> Pathmon.Cache.peek quality ~dst:dst_key ~fingerprint:fp);
            }
          in
          Pan.Conn.dial ~adaptive ~policy:latency_policy ~latency_of ~transport ~paths:shortlist ()
      | Static -> Pan.Conn.dial ~policy:latency_policy ~latency_of ~transport ~paths:shortlist ()
    in
    match dial_result with
    | Ok c -> c
    | Error e -> invalid_arg (Printf.sprintf "Exp_pathmon: dial failed: %s" e)
  in
  let preferred = (Pan.Conn.current_path conn).Combinator.fingerprint in
  let base_rtt = latency_of (Pan.Conn.current_path conn) in
  let degraded = ref 0.0 in
  let window_rtts = ref [] in
  let clock = ref 0.1 in
  while !clock < t_end do
    Engine.run engine ~until:!clock;
    (match Pan.Conn.send ~now:!clock conn ~payload:"workload" with
    | Pan.Conn.Send_failed -> ()
    | Pan.Conn.Sent { rtt_ms } ->
        if !clock >= onset_s && !clock < onset_s +. tr.duration_s then begin
          if path_degraded net (Pan.Conn.current_path conn) then degraded := !degraded +. poll_s;
          window_rtts := rtt_ms :: !window_rtts
        end);
    clock := !clock +. poll_s
  done;
  (* Drain: the self-closing scenario leaves the shared network repaired. *)
  Engine.run engine;
  ignore (Fault.Injector.fired injector);
  let inflation =
    match !window_rtts with
    | [] -> 1.0
    | rtts -> Stats.mean (Array.of_list rtts) /. Float.max 1e-9 base_rtt
  in
  let on_preferred =
    String.equal (Pan.Conn.current_path conn).Combinator.fingerprint preferred
  in
  ( !degraded,
    inflation,
    on_preferred,
    Pan.Conn.soft_switches conn,
    match prober with Some pr -> Pathmon.Prober.probes_sent pr | None -> 0 )

(* --- The experiment ---------------------------------------------------- *)

let summarize rows =
  let degraded_s = Array.map (fun (d, _, _, _, _) -> d) rows in
  let inflation = Array.map (fun (_, i, _, _, _) -> i) rows in
  let returned =
    Array.fold_left (fun acc (_, _, r, _, _) -> if r then acc + 1 else acc) 0 rows
  in
  let soft_switches = Array.fold_left (fun acc (_, _, _, s, _) -> acc + s) 0 rows in
  let probes = Array.fold_left (fun acc (_, _, _, _, p) -> acc + p) 0 rows in
  {
    degraded_s;
    median_degraded_s = Stats.median degraded_s;
    p90_degraded_s = Stats.percentile degraded_s 90.0;
    inflation;
    median_inflation = Stats.median inflation;
    returned_to_preferred = float_of_int returned /. float_of_int (Array.length rows);
    soft_switches;
    probes;
  }

let seed = 0x9A7A_40BFL
let trials = 30

let run ~telemetry =
  (* Label-derived streams: fault, probe and sender draws are independent
     of each other and of every workload stream. *)
  let fault_rng = Rng.of_label seed "fault" in
  let probe_rng = Rng.of_label seed "pathmon.probe" in
  let sender_rng = Rng.of_label seed "sender" in
  let net = Network.create ~seed ~per_origin:8 ~telemetry () in
  let metrics = Obs.registry telemetry in
  let latency_of = Network.scion_rtt_base net in
  let ias = List.map (fun (a : Topology.as_info) -> a.Topology.ia) Topology.ases in
  let pairs =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if (not (Ia.equal a b)) && List.length (Network.paths net ~src:a ~dst:b) >= 2 then
              Some (a, b)
            else None)
          ias)
      ias
    |> Array.of_list
  in
  (* A usable trial needs a target link that the second-best path avoids —
     otherwise there is no clean escape and neither mode can win. Pairs are
     redrawn (deterministically) until one qualifies. *)
  let rec make_trial attempts =
    if attempts > 100 then invalid_arg "Exp_pathmon: no trial with an escapable degradation";
    let t_src, t_dst = Rng.pick fault_rng pairs in
    let ranked =
      take shortlist_n
        (Pan.sort_paths latency_policy ~latency_of (Network.paths net ~src:t_src ~dst:t_dst))
    in
    match ranked with
    | best :: second :: _ ->
        let second_links = Network.path_links net second in
        let escapable =
          List.filter (fun l -> not (List.mem l second_links)) (Network.path_links net best)
        in
        if escapable = [] then make_trial (attempts + 1)
        else begin
          let target = Rng.pick fault_rng (Array.of_list escapable) in
          let kind = if Rng.bool fault_rng then Latency_window else Loss_burst in
          let magnitude =
            match kind with
            | Latency_window -> 80.0 +. Rng.float fault_rng 120.0
            | Loss_burst -> 0.25 +. Rng.float fault_rng 0.2
          in
          { t_src; t_dst; target; kind; magnitude; duration_s = 10.0 +. Rng.float fault_rng 10.0 }
        end
    | [ _ ] | [] -> make_trial (attempts + 1)
  in
  let plan = Array.init trials (fun _ -> make_trial 0) in
  let run_mode mode =
    summarize
      (Array.map
         (fun tr ->
           measure net ~mode ~metrics ~rng:(Rng.split sender_rng) ~probe_rng:(Rng.split probe_rng)
             tr)
         plan)
  in
  let adaptive = run_mode Adaptive in
  let static_ = run_mode Static in
  let result = { trials; adaptive; static_ } in
  let module M = Telemetry.Metrics in
  List.iter
    (fun (mode, mr) ->
      let labels = [ ("mode", mode_name mode) ] in
      let d = M.summary metrics ~labels "exp.pathmon.time_in_degraded_s" in
      Array.iter (M.record d) mr.degraded_s;
      let i = M.summary metrics ~labels "exp.pathmon.latency_inflation" in
      Array.iter (M.record i) mr.inflation)
    [ (Adaptive, adaptive); (Static, static_) ];
  result

(* --- Rendering --------------------------------------------------------- *)

let print_pathmon b r =
  Printf.bprintf b
    "== Pathmon: adaptive vs static selection under soft degradation (%d trials) ==\n"
    r.trials;
  let row mode mr =
    [
      mode_name mode;
      Table.fmt_float (Stats.percentile mr.degraded_s 25.0);
      Table.fmt_float mr.median_degraded_s;
      Table.fmt_float mr.p90_degraded_s;
      Table.fmt_float mr.median_inflation;
      Table.fmt_pct mr.returned_to_preferred;
    ]
  in
  Buffer.add_string b (Table.render
    ~header:
      [ "mode"; "degraded p25 s"; "degraded median s"; "degraded p90 s"; "median inflation"; "back on preferred" ]
    ~rows:[ row Adaptive r.adaptive; row Static r.static_ ]);
  Printf.bprintf b
    "adaptive rode a degraded path %s s median vs %s s static (%sx less); %d soft switches \
     driven by %d probes\n\n"
    (Table.fmt_float r.adaptive.median_degraded_s)
    (Table.fmt_float r.static_.median_degraded_s)
    (Table.fmt_float (r.static_.median_degraded_s /. Float.max 1e-9 r.adaptive.median_degraded_s))
    r.adaptive.soft_switches r.adaptive.probes
