(** The PAN-style application library (Section 4.2): path policies,
    preference sorting, operating-mode fallback and a path-aware
    connection abstraction with instant failover.

    This is the surface the paper's SCIONabled applications program
    against — the [--sequence], [--preference] and [--interactive] flags
    added to [bat] (Appendix E) map 1:1 onto {!policy}. *)

module Combinator = Scion_controlplane.Combinator

type preference = Latency | Hops | Mtu | Expiry
(** Sorting criteria; [Latency] uses the estimator given to {!sort_paths}. *)

type policy = {
  sequence : Scion_addr.Hop_pred.sequence option;
  deny_transit : Scion_addr.Ia.Set.t;
      (** ASes that may appear only as endpoints (Section 4.9 ethics rule). *)
  preferences : preference list;
}

val default_policy : policy
val policy_of_options :
  ?sequence:string -> ?preference:string -> unit -> (policy, string) result
(** Parse the CLI surface: a hop-predicate sequence and a comma-separated
    preference list. *)

val filter_paths : policy -> Combinator.fullpath list -> Combinator.fullpath list
val sort_paths :
  policy -> latency_of:(Combinator.fullpath -> float) -> Combinator.fullpath list ->
  Combinator.fullpath list

val pick_flow_path :
  ?policy:policy ->
  latency_of:(Combinator.fullpath -> float) ->
  headroom:(Combinator.fullpath -> float) ->
  Combinator.fullpath list ->
  Combinator.fullpath option
(** Multipath-capable flow placement: the policy-admissible path with the
    most [headroom] (spare bottleneck capacity, e.g.
    {!Sciera.Network.path_headroom_bps}), ties resolved by the policy's
    preference order. [None] when no path passes the policy — the
    single-path-IP baseline instead always takes the head of
    {!sort_paths}. *)

(** Operating modes of the library (Section 4.2.1). *)
type mode = Daemon_dependent | Bootstrapper_dependent | Standalone

val mode_to_string : mode -> string

val choose_mode : daemon_available:bool -> bootstrapper_available:bool -> mode
(** The automatic fallback: daemon if present, else in-process with the
    shared bootstrapper, else fully standalone. *)

(** A path-aware "socket": selected path plus live failover. *)
module Conn : sig
  type send_outcome = Sent of { rtt_ms : float } | Send_failed

  type transport = Combinator.fullpath -> payload:string -> send_outcome
  (** Supplied by the host environment (simulator). *)

  type adaptive = {
    selector : Pathmon.Selector.t;
        (** Per-connection hysteresis state (do not share across conns). *)
    quality : string -> Pathmon.Estimator.t option;
        (** Live estimator lookup by path fingerprint — typically
            [Pathmon.Cache.peek] on the daemon's shared quality cache, so
            every connection to the destination pools its knowledge. *)
  }
  (** What a soft-failover connection consults before each send. *)

  type t

  (* scion-lint: rng-stream sender -- reprobe jitter draws from the connection's sender stream *)
  val dial :
    ?metrics:Telemetry.Metrics.registry ->
    ?peer:string ->
    ?reprobe:Scion_util.Backoff.policy * Scion_util.Rng.t ->
    ?adaptive:adaptive ->
    policy:policy ->
    latency_of:(Combinator.fullpath -> float) ->
    transport:transport ->
    paths:Combinator.fullpath list ->
    unit ->
    (t, string) result
  (** Picks the best path under the policy. Errors when no path passes.
      With [?metrics], the connection counts [pan.send{peer,outcome}]
      (outcome [sent]/[failed], after any failovers) and
      [pan.failovers{peer}]; [?peer] labels the series.

      With [?reprobe:(policy, rng)], a failed path is parked rather than
      dropped forever and re-probed under the capped-exponential
      {!Scion_util.Backoff} policy, drawing its jitter from [rng]: pass [~now] (seconds) to {!send} and
      every parked path whose probe timer is due is re-inserted at its
      original preference rank, so the connection returns to the preferred
      path after repair instead of sticking to the detour. Re-probing
      connections additionally count [pan.reprobes{peer}].

      With [?adaptive], every {!send} first asks the
      {!Pathmon.Selector} whether live quality (fed by a prober into the
      shared cache) says the active path has degraded past hysteresis, and
      soft-fails over to the best-scoring candidate if so — returning the
      same way once the preferred path recovers. Soft failover only
      reorders candidates; it composes with hard failover and re-probe
      parking. Adaptive connections additionally count
      [pan.soft_switches{peer}]. *)

  val current_path : t -> Combinator.fullpath
  val candidates : t -> int

  val send : ?now:float -> t -> payload:string -> send_outcome
  (** On failure, fails over to the next candidate path (if any) and
      retries, so a single link failure does not surface to the caller —
      the rapid-failover behaviour marketed for gaming in Section 4.7.
      Without [?now] (or without a [?reprobe] policy) failed paths are
      dropped permanently — the pre-self-healing semantics. *)

  val failovers : t -> int

  val reprobes : t -> int
  (** Parked paths that have been given another chance by {!send}. *)

  val soft_switches : t -> int
  (** Selector-driven path changes (degradations and recoveries both). *)
end
