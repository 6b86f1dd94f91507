(** The adaptive path-selection engine: scores each candidate path by
    blending its static policy rank (the deterministic latency the
    {!Scion_endhost.Pan} policy sorted by) with the live {!Estimator}
    state, and decides — with hysteresis — whether the active path should
    be kept or softly abandoned.

    Soft failover is the gap left by hard-down handling: a path under a
    maintenance latency window or a loss burst still {e delivers}, so no
    SCMP error fires and no failover triggers, yet the paper's Section 5
    path-quality data (and the SCIONlab dynamics studies) show such
    degradation is the common case. The selector moves traffic off a
    degraded path once its blended score exceeds the best alternative's by
    the hysteresis margin for [hold_ticks] consecutive decisions, and moves
    it back the same way once the path recovers — both transitions damped
    so jitter never causes flapping.

    Decisions are pure in the inputs (no clock, no randomness): a seeded
    simulation replays its switch schedule exactly. *)

type config = {
  loss_penalty_ms : float;
      (** Score penalty at 100% loss; scales linearly with the loss rate. *)
  dev_weight : float;
      (** Weight of the RTT mean deviation in the score (RTO-style). *)
  switch_margin : float;
      (** Relative score advantage a challenger needs before a switch is
          even considered (e.g. [0.1] = 10% better). *)
  hold_ticks : int;
      (** Consecutive decisions the advantage must persist ([>= 1]). *)
  min_probes : int;
      (** Below this many probe outcomes an estimator is not trusted and
          the static latency is used instead. *)
}

val default_config : config
(** 250 ms loss penalty, deviation weight 2.0, 10% margin, 2-tick hold,
    3-probe warmup. *)

val make_config :
  ?loss_penalty_ms:float ->
  ?dev_weight:float ->
  ?switch_margin:float ->
  ?hold_ticks:int ->
  ?min_probes:int ->
  unit ->
  config
(** {!default_config} with overrides; raises [Invalid_argument] on
    negative weights/margins/penalties or non-positive [hold_ticks]. *)

type candidate = {
  fingerprint : string;  (** {!Scion_controlplane.Combinator.fullpath} id. *)
  static_ms : float;  (** The policy's deterministic RTT estimate. *)
  estimator : Estimator.t option;  (** Live state, when monitored. *)
}

val score : config -> candidate -> float
(** The blended score (lower is better): the estimator's EWMA RTT (static
    RTT until [min_probes] outcomes) plus [dev_weight] times the RTT
    deviation plus [loss_penalty_ms] times the windowed loss rate. *)

type t

val create :
  ?metrics:Telemetry.Metrics.registry ->
  ?labels:Telemetry.Metrics.labels ->
  ?config:config ->
  unit ->
  t
(** With [?metrics], the selector counts [pathmon.selector.switches] and
    [pathmon.selector.returns] and gauges [pathmon.selector.active_score]
    under [?labels]. *)

val choose : t -> candidates:candidate list -> active:string -> string
(** [choose t ~candidates ~active] is the fingerprint the connection
    should use next. Returns [active] unless a challenger has beaten it by
    [switch_margin] for [hold_ticks] consecutive calls (or [active] is no
    longer a candidate, which switches immediately — that is the hard
    failover case arriving through the soft path). The hysteresis is
    asymmetric: a challenger that is the statically-preferred candidate
    needs only a sustained advantage, not the full margin — primary-path
    affinity, so recovery always leads back even when the preferred
    path's static edge is smaller than the margin. Ties break towards the
    smaller static latency, then the smaller fingerprint, so the decision
    is deterministic. Raises [Invalid_argument] on an empty candidate
    list. *)
