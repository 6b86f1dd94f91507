(** An end host attached to a SCIERA AS — the complete Section 4.1/4.2
    stack wired to the simulated network: bootstrapping (with automatic
    mode fallback), a daemon (or its in-process equivalent), the PAN-style
    policy library, and a transport that pushes real packets through the
    border routers and samples latency from the link model. *)

type t

val attach :
  Network.t ->
  ia:Scion_addr.Ia.t ->
  unit ->
  (t, string) result
(** Join the network at the given AS: discover the bootstrapping server,
    fetch and verify the signed topology and the TRC, and set up path
    lookup. Every simulated AS runs both a daemon and a bootstrapping
    server, so the mode is {!Scion_endhost.Pan.choose_mode}'s pick for that
    case. *)

val mode : t -> Scion_endhost.Pan.mode
val bootstrap_timing : t -> Scion_endhost.Bootstrap.timing

val paths : t -> dst:Scion_addr.Ia.t -> Scion_controlplane.Combinator.fullpath list
(** Daemon-cached path lookup. *)

val latency_estimate : t -> Scion_controlplane.Combinator.fullpath -> float
(** Deterministic RTT estimate used for preference sorting. *)

val dial :
  t ->
  dst:Scion_addr.Ia.t ->
  ?policy:Scion_endhost.Pan.policy ->
  unit ->
  (Scion_endhost.Pan.Conn.t, string) result

val ping :
  t -> dst:Scion_addr.Ia.t -> [ `Rtt of float | `Unreachable ]
(** SCMP echo over the current best path. *)

val request :
  t ->
  dst:Scion_addr.Ia.t ->
  ?policy:Scion_endhost.Pan.policy ->
  payload:string ->
  handler:(string -> string) ->
  unit ->
  ([ `Reply of string * float ], string) result
(** One request/response exchange: the payload travels to [dst] over a
    policy-selected path, [handler] computes the peer's answer, and the
    reply returns over the reversed path — both directions walked through
    the actual border routers. *)
