(** The SCION daemon (sciond): the end-host's control-plane broker.
    It fetches paths on demand and caches them until close to expiry. Applications in daemon-dependent mode share one
    daemon per host (shared cache); bootstrapper-dependent and standalone
    libraries embed the same logic in-process (Section 4.2.1). *)

type t

type fetch = dst:Scion_addr.Ia.t -> Scion_controlplane.Combinator.fullpath list
(** Backend query to the AS control service / path servers. *)

(* scion-lint: rng-stream daemon -- fetch-retry jitter draws from the stream passed with ?retry, never a shared one *)
val create :
  ia:Scion_addr.Ia.t ->
  fetch:fetch ->
  ?cache_ttl:float ->
  ?revocation_ttl:float ->
  ?retry:Scion_util.Backoff.policy * Scion_util.Rng.t ->
  ?quality:Pathmon.Cache.t ->
  ?metrics:Telemetry.Metrics.registry ->
  unit ->
  t
(** [cache_ttl] caps how long a cached path set is served (default 300 s).
    Paths that expire within 60 s are discarded, mirroring the paper's
    path-expiration lessons.
    [revocation_ttl] (default 10 s) bounds how long an SCMP-learnt
    interface revocation suppresses paths — after it lapses the interface
    is trusted again (the data plane re-answers if it is still dead).
    With [?retry:(policy, rng)], a fetch that returns no paths is retried
    under the given {!Scion_util.Backoff} policy, drawing its jitter from
    [rng]; the backoff waits are simulated, never slept. With
    [?metrics], every lookup counts into [daemon.lookups{ia,source}] with
    source [cache] or [fetch]. *)

val quality : t -> Pathmon.Cache.t
(** The host's shared per-destination path-quality cache: probers feed it,
    adaptive connections ({!Pan.Conn.adaptive}) and [showpaths] read it.
    Defaults to a fresh (metrics-less) cache when [?quality] was not
    given, so every daemon can answer quality queries. *)

type source = From_cache | Fetched

val lookup : t -> now:float -> dst:Scion_addr.Ia.t -> Scion_controlplane.Combinator.fullpath list * source
(** Valid paths to [dst]: non-near-expiry and not crossing an actively
    revoked interface. *)

val handle_scmp :
  t -> now:float -> ?path:Scion_controlplane.Combinator.fullpath -> Scion_dataplane.Scmp.t -> int option
(** Dispatch an SCMP message, returning [Some evicted] cached paths;
    every other message is ignored ([None]). [External_interface_down]
    revokes the interface for [revocation_ttl] seconds and evicts every
    cached path crossing it. [Invalid_hop_field_mac] with [?path] (the path
    the failed probe travelled) means poisoned control-plane state (e.g. a
    rogue down-segment registration), whose interfaces may be fictional:
    that path is revoked by fingerprint instead. Destinations left with no
    cached path are re-fetched eagerly. *)

val revocations : t -> int
(** Interface revocations learnt via {!handle_scmp} (including
    re-announcements). *)

val poisoned_revocations : t -> int
(** Paths revoked by fingerprint after an invalid-MAC report. *)

val evicted_paths : t -> int
(** Total cached paths evicted by revocations. *)
