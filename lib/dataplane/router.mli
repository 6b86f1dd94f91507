(** The SCION border router forwarding engine.

    A router belongs to one AS, shares the AS forwarding key, and owns a set
    of external interfaces (each leading to a neighbouring AS). Processing a
    packet is a pure decision: verify the current hop field (expiry, MAC,
    ingress-interface consistency), update the segment identifier, handle
    segment crossovers, and either forward out of an egress interface,
    deliver locally, or drop with a precise reason.

    MAC verification implements the chained-[seg_id] scheme of {!Path},
    including the peering rule: a peer hop field (first hop of a
    construction-direction peering segment, or last hop of a reversed one)
    is verified against the current [seg_id] directly, with no fold. *)

type iface = { ifid : int; remote_ia : Scion_addr.Ia.t; remote_ifid : int }

type t

val create :
  ?metrics:Telemetry.Metrics.registry ->
  ia:Scion_addr.Ia.t ->
  key:Fwkey.t ->
  ifaces:iface list ->
  unit ->
  t
(** Raises [Invalid_argument] on duplicate interface ids or interface id
    0 (reserved for "local").

    With [?metrics], the router registers (eagerly, so snapshots have a
    stable shape) and maintains: [router.forwarded], [router.delivered],
    [router.dropped{reason}], [router.mac_failures],
    [router.scmp_errors{type}] (the SCMP error that each drop would emit),
    and per-interface [router.iface_rx_packets{ifid}] /
    [router.iface_tx_packets{ifid}] — all labelled with the router's
    [ia]. *)

val ia : t -> Scion_addr.Ia.t
val interfaces : t -> iface list
val interface : t -> int -> iface option
val set_interface_state : t -> int -> up:bool -> unit
(** Administrative/link state; packets to a down interface are dropped with
    [Interface_down] (and observability hooks count them). *)

val interface_up : t -> int -> bool

type drop_reason =
  | Not_for_us  (** Empty-path packet whose destination is another AS. *)
  | Invalid_mac
  | Expired_hop of { expired_at : float }
  | Ingress_mismatch of { expected : int; actual : int }
  | Unknown_interface of int
  | Interface_down of int
  | Path_malformed of string

val drop_reason_to_string : drop_reason -> string

type verdict =
  | Deliver of Packet.t  (** Hand to the local end-host (dst host). *)
  | Forward of { egress : int; packet : Packet.t }
  | Drop of drop_reason

val process : t -> now:float -> ingress:int -> Packet.t -> verdict
(** [process t ~now ~ingress pkt] forwards one packet. [ingress] is the
    interface the packet arrived on, 0 meaning "from inside the AS" (an
    end host or gateway). The returned packet shares the (mutated) path. *)

val process_view : t -> now:float -> ingress:int -> Packet.View.view -> int
(** Allocation-free twin of {!process} over a zero-copy wire view: the hop
    field is read and verified in place and the path position / segment id
    are patched back into the buffer, so forwarding a packet allocates
    nothing. The verdict is int-coded to stay flat: [0] delivers to the
    local AS, a positive value forwards out of that egress interface, and a
    negative value drops — the reason is retrieved with {!last_drop}.
    Decision-for-decision identical to {!process} (same checks, same
    counters and telemetry), which the conformance suite pins. *)

val last_drop : t -> drop_reason
(** The reason behind the most recent drop verdict from {!process_view}
    (or {!process}). Only meaningful immediately after a drop. *)

val scmp_answer : t -> drop_reason -> Scmp.t option
(** The SCMP error message this router sends back to the source for a
    drop — the answer a dead-interface traversal gets instead of silence.
    [Interface_down]/[Unknown_interface] yield
    {!Scmp.External_interface_down} carrying this router's IA and the
    interface id, which is exactly what a daemon needs to revoke every
    cached path crossing that interface. [Ingress_mismatch] and
    [Path_malformed] get no reply ([None]): answering an unverifiable
    packet would make the router an amplifier. *)

val configure_scmp_limiter :
  t -> ?metrics:Telemetry.Metrics.registry -> budget_bytes_per_s:float -> unit -> unit
(** Arm the SCMP emission throttle: at most [budget_bytes_per_s] bytes of
    error/echo traffic per one-second window, counted against the
    simulated clock passed to {!scmp_allow}. Without it (the default)
    emission is unlimited, the historic behaviour. With [?metrics] the
    suppressions are published as [scmp.rate_limited{ia}] /
    [scmp.rate_limited_bytes{ia}]. Raises [Invalid_argument] on a
    non-positive budget. *)

val scmp_allow : t -> now:float -> bytes:int -> bool
(** Account [bytes] of would-be SCMP emission against the budget window
    containing [now]; [false] means the message must be suppressed (and
    was counted). Always [true] when no limiter is configured. *)

val scmp_rate_limited : t -> int * int
(** (messages, bytes) suppressed by the throttle so far ([0, 0] when none
    is configured). *)

type counters = {
  mutable forwarded : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable mac_failures : int;
}

val counters : t -> counters
(** Live counters, exposed for the observability story of Section 4.4. *)
