(** The dispatcher — and its retirement (Section 4.8).

    The historical SCION end-host stack ran a shared background process
    listening on one fixed UDP port, demultiplexing inbound SCION traffic
    to applications over Unix domain sockets: "a faithful recreation of
    what a kernel socket might do, just in user space". It became a
    bottleneck (single queue, no RSS across cores) and was removed in
    favour of per-application sockets.

    This module implements both data paths so the ablation benchmark can
    quantify the difference the paper describes:
    - {!t}: the dispatcher's demux table and per-packet overhead;
    - {!Direct}: the dispatcherless path (per-app socket, a table lookup
      the kernel does, modelled as a no-overhead delivery);
    - {!model_throughput}: the RSS scaling model — dispatcherd traffic is
      confined to one core, dispatcherless traffic spreads over [cores]. *)

type t

val create : unit -> t

val register : t -> port:int -> app:string -> (unit, string) result
(** Claim a UDP port for an application (errors on conflicts). *)

type delivery = Delivered of string | No_listener

val dispatch : t -> dst_port:int -> payload:string -> delivery
(** The dispatcher data path: demux-table lookup plus per-packet overhead
    (header re-parse + UDS copy, modelled as real work on the payload). *)

module Direct : sig
  type socket

  val open_socket : port:int -> socket
  val deliver : socket -> payload:string -> string
  (** The dispatcherless path: the payload goes straight to the socket. *)
end

val model_throughput :
  mode:[ `Dispatcher | `Dispatcherless ] ->
  cores:int ->
  per_packet_us:float ->
  dispatcher_overhead_us:float ->
  float
(** Achievable packets/s: one core's budget for the dispatcher (shared
    port, no RSS), [cores] budgets without it. *)
