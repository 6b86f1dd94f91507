module M = Telemetry.Metrics
module Rng = Scion_util.Rng
module Backoff = Scion_util.Backoff
module Table = Scion_util.Table

type target = {
  estimator : Estimator.t;
  mutable consecutive_losses : int;
  mutable due_s : float;  (** Next probe time; 0. = due immediately. *)
}

type obs = { o_probes : M.counter; o_ticks : M.counter }

type t = {
  interval_ms : float;
  jitter : float;
  backoff : Backoff.policy;
  rng : Rng.t;
  probe : fingerprint:string -> [ `Rtt of float | `Lost ];
  targets : (string, target) Hashtbl.t;
  mutable probe_count : int;
  obs : obs option;
}

let create ?metrics ?(interval_ms = 50.0) ?(jitter = 0.1) ~rng ~probe () =
  if Float.is_nan interval_ms || interval_ms <= 0.0 then
    invalid_arg (Printf.sprintf "Prober.create: interval_ms must be > 0 (got %g)" interval_ms);
  if Float.is_nan jitter || jitter < 0.0 || jitter > 1.0 then
    invalid_arg (Printf.sprintf "Prober.create: jitter must be in [0, 1] (got %g)" jitter);
  let backoff =
    Backoff.make ~base_ms:interval_ms ~multiplier:2.0 ~cap_ms:(16.0 *. interval_ms) ~jitter
      ~max_attempts:max_int ()
  in
  let obs =
    Option.map
      (fun registry ->
        {
          o_probes = M.counter registry "pathmon.prober.probes";
          o_ticks = M.counter registry "pathmon.prober.ticks";
        })
      metrics
  in
  {
    interval_ms;
    jitter;
    backoff;
    rng;
    probe;
    targets = Hashtbl.create 16;
    probe_count = 0;
    obs;
  }

let watch t ~fingerprint ~estimator =
  Hashtbl.replace t.targets fingerprint { estimator; consecutive_losses = 0; due_s = 0.0 }

(* One jittered healthy-path interval, in simulated seconds. *)
let healthy_gap_s t =
  let factor =
    if t.jitter > 0.0 then 1.0 -. t.jitter +. Rng.float t.rng (2.0 *. t.jitter) else 1.0
  in
  t.interval_ms *. factor /. 1000.0

let probe_target t fingerprint tgt ~now_s =
  let outcome = t.probe ~fingerprint in
  Estimator.observe tgt.estimator outcome;
  t.probe_count <- t.probe_count + 1;
  (match t.obs with None -> () | Some o -> M.inc o.o_probes);
  (match outcome with
  | `Rtt _ -> tgt.consecutive_losses <- 0
  | `Lost -> tgt.consecutive_losses <- tgt.consecutive_losses + 1);
  let gap_s =
    if tgt.consecutive_losses = 0 then healthy_gap_s t
    else
      (* Lossy path: geometric backoff paced by the policy, never faster
         than the healthy cadence. *)
      let d = Backoff.delay_ms t.backoff ~rng:t.rng ~attempt:tgt.consecutive_losses /. 1000.0 in
      Float.max d (t.interval_ms /. 1000.0)
  in
  tgt.due_s <- now_s +. gap_s

let tick t ~now_s =
  (match t.obs with None -> () | Some o -> M.inc o.o_ticks);
  Table.fold_sorted
    (fun fingerprint tgt probed ->
      if tgt.due_s <= now_s then begin
        probe_target t fingerprint tgt ~now_s;
        probed + 1
      end
      else probed)
    t.targets 0

let probe_all t ~now_s =
  Table.fold_sorted
    (fun fingerprint tgt probed ->
      probe_target t fingerprint tgt ~now_s;
      probed + 1)
    t.targets 0

let attach t ~engine ~until_s =
  let module Engine = Netsim.Engine in
  let rec arm () =
    let next = Engine.now engine +. healthy_gap_s t in
    if next <= until_s then
      Engine.schedule_at engine ~time:next (fun () ->
          ignore (tick t ~now_s:(Engine.now engine) : int);
          arm ())
  in
  arm ()

let probes_sent t = t.probe_count
