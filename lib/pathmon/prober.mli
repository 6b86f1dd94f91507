(** Simulated-clock SCMP-echo probing loop over a set of watched paths.

    The prober owns no network knowledge: the creator injects a [probe]
    callback (in this repository, an SCMP echo walked over the simulated
    fabric via [Sciera.Network.scmp_probe]) and the prober supplies the
    schedule — a periodic tick on a {!Netsim.Engine} timer that probes
    every watched path whose due time has arrived and feeds the outcome to
    that path's {!Estimator}.

    Pacing follows the {!Scion_util.Backoff} discipline: a healthy path is
    probed every [interval_ms] (jittered so concurrent probers
    de-synchronise), while a path with consecutive losses backs off
    geometrically up to the policy cap, so dead paths stop burning probe
    budget. All jitter draws come from the prober's {b own} [rng] — derive
    it with [Rng.of_label seed "pathmon.probe"] or similar — so attaching
    a prober to a running simulation never perturbs workload draws
    (pinned byte-for-byte by [test_golden]). *)

type t

(* scion-lint: rng-stream pathmon.probe -- the prober's private stream; isolation is pinned by test_golden *)
val create :
  ?metrics:Telemetry.Metrics.registry ->
  ?interval_ms:float ->
  ?jitter:float ->
  rng:Scion_util.Rng.t ->
  probe:(fingerprint:string -> [ `Rtt of float | `Lost ]) ->
  unit ->
  t
(** [interval_ms] (default [50.]) is the healthy-path probe period;
    [jitter] (default [0.1], in [\[0, 1\]]) scales each period uniformly in
    [\[1 - jitter, 1 + jitter\]]. Paths with consecutive losses back off
    from [interval_ms], doubling up to [16 *. interval_ms], with the same
    jitter. With [?metrics], the prober counts [pathmon.prober.probes] and
    [pathmon.prober.ticks]. Raises [Invalid_argument] on a non-positive interval or
    out-of-range jitter. *)

val watch : t -> fingerprint:string -> estimator:Estimator.t -> unit
(** Add a path to the probe rotation (first probe on the next tick).
    Re-watching an already-watched fingerprint swaps in the new estimator
    and resets its pacing. *)

val tick : t -> now_s:float -> int
(** Probe every watched path due at or before [now_s] (simulated seconds)
    and reschedule each; returns how many paths were probed. Exposed so
    tests and benchmarks can drive the loop without an engine. *)

val probe_all : t -> now_s:float -> int
(** Force-probe every watched path regardless of due times (and reset
    their pacing from the outcomes) — the warm-up used by
    [bin/showpaths] before rendering quality columns. *)

val attach : t -> engine:Netsim.Engine.t -> until_s:float -> unit
(** Schedule a self-rescheduling tick every (jittered) [interval_ms] on
    [engine], starting one interval from [Netsim.Engine.now engine] and
    stopping once the next tick would land after [until_s]. Without the
    bound the engine's queue would never drain. *)

val probes_sent : t -> int
(** Total probes issued across all watched paths. *)
