(** SCION packet: common header, address header, path, payload.

    The layout follows the SCION header specification (version 0 standard
    header): a fixed common header with flow id and path type, an address
    header carrying destination/source IA and host addresses, the path
    (empty for intra-AS, standard otherwise), then the L4 payload. *)

type host = Ipv4 of Scion_addr.Ipv4.t | Service of int
(** End-host address within an AS: a concrete IPv4 address or a well-known
    anycast service number. *)

type proto = Udp | Scmp | Bfd
(** L4 protocols carried in this reproduction. *)

type path = Empty | Standard of Path.t
(** [Empty] is used for intra-AS communication (no inter-AS forwarding). *)

type t = {
  traffic_class : int;
  flow_id : int;  (** 20-bit flow label. *)
  proto : proto;
  dst_ia : Scion_addr.Ia.t;
  src_ia : Scion_addr.Ia.t;
  dst_host : host;
  src_host : host;
  path : path;
  payload : string;
}

val make :
  proto:proto ->
  src:Scion_addr.Ia.t * host ->
  dst:Scion_addr.Ia.t * host ->
  path:path ->
  string ->
  t
(** A packet with traffic class and flow id 0. *)

exception Malformed of string

val encode : t -> string
val decode : string -> t
(** Raises [Malformed]. *)

val reply_skeleton : t -> payload:string -> t
(** Swap source and destination and reverse the path — what an end host
    does to answer (e.g. an SCMP echo reply). Raises [Path.Malformed] when
    the path cannot be reversed. *)

(** Zero-copy wire view for the forwarding fast path.

    Forwarding only mutates the path-meta position byte and the current
    segment identifier, so a border router can process the encoded buffer
    in place instead of decode / mutate / re-encode. All accessors are
    allocation-free; validation happens once, when the view is built. The buffer is
    the single source of truth: [to_packet]/[buffer] at any point yield
    exactly what an on-wire observer would see. *)
module View : sig
  type view

  val of_packet : t -> view
  (** Encode once and view the result (no defensive copy; the encoded
      string is fresh). *)

  val of_string : string -> view
  (** Validate and view a copy of the bytes. Raises [Malformed] on
      anything {!decode} would reject structurally. *)

  val validate : string -> (view, string) result
  (** Exception-free acceptance of untrusted wire bytes: [Ok] is a view
      over a private copy, [Error] carries the structural rejection
      reason. Exactly the inputs {!decode} accepts validate — truncations,
      bad meta, out-of-range positions and length mismatches all come
      back as [Error], never as a raise. *)

  val to_packet : view -> t
  (** Full decode of the current buffer state (delivery path). *)

  val has_path : view -> bool
  (** [false] for an empty (intra-AS) path. All path accessors below must
      only be called when this is [true]. *)

  val dst_isd : view -> int
  val dst_asn : view -> int

  val curr_cons_dir : view -> bool
  val curr_peer : view -> bool
  val curr_seg_id : view -> int
  val curr_timestamp : view -> int
  (** Unsigned 32-bit segment origination time. *)

  val set_curr_seg_id : view -> int -> unit
  val curr_exp_time : view -> int
  val curr_cons_ingress : view -> int
  val curr_cons_egress : view -> int

  val curr_mac_off : view -> int
  (** Byte offset of the current hop's 6-byte MAC in {!buffer}, for staged
      in-place verification. *)

  val buffer : view -> Bytes.t

  val chain_curr_seg_id : view -> int
  (** [Path.chain_seg_id] over the current info/hop, read off the wire. *)

  val curr_is_seg_first : view -> bool
  val curr_is_seg_last : view -> bool
  val at_last_hop : view -> bool

  val advance : view -> unit
  (** Move to the next hop field, crossing into the next segment after
      the last hop of one, by patching the path-meta position byte.
      Raises [Malformed] when already at the last hop. *)

  val traversal_ingress : view -> int
  val traversal_egress : view -> int
end
