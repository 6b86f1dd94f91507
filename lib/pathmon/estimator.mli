(** Per-path quality estimator: EWMA round-trip time with mean-deviation
    tracking (RFC 6298-style smoothing) plus a windowed loss rate over the
    last [loss_window] probe outcomes.

    Estimators are fed by a {!Prober} (or any other probe source) and read
    by the {!Selector} and by operator tooling ([bin/showpaths]). They hold
    no clock and draw no randomness: every input is an explicit probe
    outcome, so a seeded probing schedule replays to byte-identical
    estimator state — the property the [pathmon] golden figure pins.

    With [?metrics], each estimator exports its live state as [pathmon.*]
    series ([pathmon.rtt_ewma_ms], [pathmon.rtt_deviation_ms],
    [pathmon.loss_rate] gauges and the [pathmon.probes{outcome}] counters),
    labelled by whatever [?labels] the creator scopes it with — snapshots
    come out in the registry's canonical sorted order, byte-stable across
    runs. *)

type config = {
  rtt_alpha : float;  (** EWMA gain for the smoothed RTT, in (0, 1]. *)
  dev_beta : float;  (** Gain for the mean absolute deviation, in (0, 1]. *)
  loss_window : int;  (** Probe outcomes kept for the loss rate ([>= 1]). *)
}

val default_config : config
(** alpha 1/4, beta 1/8 (the TCP SRTT constants), 16-probe loss window. *)

type t

val create :
  ?metrics:Telemetry.Metrics.registry ->
  ?labels:Telemetry.Metrics.labels ->
  ?config:config ->
  unit ->
  t

val observe : t -> [ `Rtt of float | `Lost ] -> unit
(** Feed one probe outcome. [`Rtt ms] must be finite and non-negative
    ([Invalid_argument] otherwise); [`Lost] only moves the loss window. *)

val rtt_ewma_ms : t -> float option
(** Smoothed RTT; [None] until the first successful probe. *)

val rtt_deviation_ms : t -> float
(** Mean absolute deviation of the RTT samples around the EWMA ([0.] until
    two successful probes). *)

val loss_rate : t -> float
(** Lost fraction of the last [loss_window] probes ([0.] before any). *)

val observe_bandwidth : t -> utilisation:float -> queue_delay_ms:float -> unit
(** Feed one bandwidth signal sample — typically the worst per-hop
    {!Netsim.Net.utilisation} and queueing delay along the monitored
    path. Both are EWMA-smoothed with [rtt_alpha]; with
    [?metrics] the smoothed values export as the [pathmon.utilisation] and
    [pathmon.queue_delay_ms] gauges (created on the first sample, so
    estimators never fed a signal keep their historic snapshot). Raises
    [Invalid_argument] on a utilisation outside [\[0, 1\]] or a
    NaN/negative/infinite delay. *)

val utilisation : t -> float
(** Smoothed path utilisation in [\[0, 1\]]; [0.] before any bandwidth
    sample. *)

val queue_delay_ms : t -> float
(** Smoothed path queueing delay; [0.] before any bandwidth sample. *)

val probes : t -> int
(** Total outcomes observed (successes and losses). *)
