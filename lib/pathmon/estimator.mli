(** Per-path quality estimator: EWMA round-trip time with mean-deviation
    tracking (RFC 6298-style smoothing) plus a windowed loss rate over the
    last [loss_window] probe outcomes.

    Estimators are fed by a {!Prober} (or any other probe source) and read
    by the {!Selector} and by operator tooling ([bin/showpaths]). They hold
    no clock and draw no randomness: every input is an explicit probe
    outcome, so a seeded probing schedule replays to byte-identical
    estimator state — the property the [pathmon] golden figure pins. *)

type config = {
  rtt_alpha : float;  (** EWMA gain for the smoothed RTT, in (0, 1]. *)
  dev_beta : float;  (** Gain for the mean absolute deviation, in (0, 1]. *)
  loss_window : int;  (** Probe outcomes kept for the loss rate ([>= 1]). *)
}

type t

val create : ?config:config -> unit -> t
(** The default [config] is alpha 1/4, beta 1/8 (the TCP SRTT constants)
    and a 16-probe loss window. Raises [Invalid_argument] on a gain
    outside (0, 1] or an empty window. *)

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

val probes : t -> int
(** Total outcomes observed (successes and losses). *)
