(** Open-loop workload generation for the traffic engine: Poisson
    arrivals modulated by per-PoP diurnal load curves (non-homogeneous via
    thinning), heavy-tailed truncated-Pareto flow sizes, and weighted
    source/destination PoP selection.

    Determinism contract: every draw comes from the stream passed to
    {!attach} — conventionally [Rng.of_label seed "traffic"] — and the
    generator schedules only its own timer chain, so attaching load never
    perturbs the fabric workload stream or any fault/pathmon stream
    (pinned by [test/test_traffic.ml]). *)

type pop = {
  name : string;  (** PoP identifier, matched to topology by the caller. *)
  weight : float;  (** Relative share of offered load ([> 0]). *)
  phase_h : float;  (** Diurnal phase offset in curve points ("hours"). *)
}

type config = {
  base_rate_per_s : float;  (** Aggregate arrival rate at multiplier 1. *)
  pareto_alpha : float;  (** Pareto shape; heavier tail as it approaches 1. *)
  pareto_xm_bytes : float;  (** Pareto scale = minimum flow size. *)
  max_flow_bytes : float;  (** Truncation cap on drawn sizes. *)
  diurnal : float array;  (** Day curve multipliers, wrapped + interpolated. *)
  day_s : float;  (** Simulated seconds per diurnal day. *)
}

val make_config :
  ?base_rate_per_s:float ->
  ?pareto_xm_bytes:float ->
  ?max_flow_bytes:float ->
  ?day_s:float ->
  unit ->
  config
(** The Pareto shape is 1.4 and the diurnal curve a mild 24-point day
    (overnight trough, evening peak, mean close to 1). Defaults for the
    rest: 4 arrivals/s, 30 kB minimum, 30 MB cap, 86 400 s day. Raises
    [Invalid_argument] on non-positive/non-finite rates, sizes or day
    length, or a cap below the scale. {!attach} applies the same checks to
    every field of a config it is given. *)

type t

(* scion-lint: rng-stream traffic -- every workload draw comes from the dedicated traffic stream *)
val attach :
  engine:Netsim.Engine.t ->
  rng:Scion_util.Rng.t ->
  ?config:config ->
  pops:pop list ->
  duration_s:float ->
  sink:(now:float -> src:pop -> dst:pop -> size_bytes:float -> unit) ->
  unit ->
  t
(** Schedule arrivals on [engine] from now until now + [duration_s],
    calling [sink] for each accepted arrival as the engine reaches it.
    Source PoPs are drawn proportional to [weight × diurnal(t + phase)],
    destinations by weight among the remaining PoPs. The diurnal day
    starts at attach time, so the arrival sequence is a pure function of
    (stream, config, pops, duration) — re-deriving the stream replays
    byte-identical arrivals wherever the engine clock stands. Raises
    [Invalid_argument] on fewer than two PoPs, non-positive weights, or a
    non-positive duration. *)

val arrivals : t -> int
(** Accepted arrivals delivered to the sink so far. *)

