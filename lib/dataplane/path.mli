(** The SCION standard path header: info fields, hop fields, and the
    cryptographic hop-field chaining that border routers verify.

    A path carries up to three segments (up, core, down). Every segment has
    one 8-byte info field and up to 63 12-byte hop fields. Hop-field MACs
    form a chain: with [beta_0] the segment's random initial value and
    [mac_i] the MAC of hop [i], [beta_{i+1} = beta_i xor mac_i[0..1]]. A
    router traversing in construction direction verifies against the
    current [seg_id] and then folds its own MAC into it; against
    construction direction it first unfolds. This is what makes SCION paths
    unforgeable without per-router state. *)

type info = {
  cons_dir : bool;  (** [true] when traversed in construction direction. *)
  peer : bool;  (** Peering-shortcut segment flag. *)
  mutable seg_id : int;  (** Current beta (16 bits), mutated in place during forwarding. *)
  timestamp : int32;  (** Segment origination time (unix seconds). *)
}

type hop = {
  exp_time : int;  (** Relative expiry (8 bits); see {!hop_expiry}. *)
  cons_ingress : int;  (** Interface id in construction direction (16 bit). *)
  cons_egress : int;
  mac : string;  (** 6-byte truncated CMAC. *)
}

type t = {
  mutable curr_inf : int;
  mutable curr_hf : int;
  infos : info array;
  hops : hop array;
  lens : int array;
}
(** Decoded standard path. [infos] has 1-3 entries; [lens] gives the number
    of hop fields per segment. The [hops] array is flat: segment 0 first. *)

exception Malformed of string

val create : (info * hop list) list -> t
(** [create segments] builds a path positioned at its first hop. Raises
    [Malformed] when the segment structure is invalid (0 or > 3 segments,
    empty or oversized segment). *)

val hop_expiry : info -> hop -> float
(** Absolute expiry time in unix seconds: the spec's relative encoding
    [ (exp_time + 1) * 24h / 256 ] added to the segment timestamp. *)

val hop_expiry_ts : timestamp:int -> exp_time:int -> float
(** Scalar variant of {!hop_expiry} for callers holding the raw wire fields
    ([timestamp] as an unsigned 32-bit int). *)

val max_exp_time : int

val mac_len : int
(** Length of the truncated hop MAC on the wire (6 bytes). *)

val compute_mac : Scion_crypto.Cmac.key -> seg_id:int -> timestamp:int32 -> hop -> string
(** 6-byte truncated hop MAC. *)

val stage_mac_fields :
  Scion_crypto.Cmac.key ->
  seg_id:int ->
  timestamp:int ->
  exp_time:int ->
  cons_ingress:int ->
  cons_egress:int ->
  unit
(** Write the canonical 16-byte MAC input straight into the CMAC key's
    staging block ({!Scion_crypto.Cmac.stage}) without allocating; follow
    with a staged CMAC operation. The fields are scalars (the timestamp an
    unsigned 32-bit int) so the packet-view fast path can verify hops read
    directly out of a wire buffer. *)

val chain_seg_id : seg_id:int -> mac:string -> int
(** [beta xor mac[0..1]]. *)

val encode : t -> string
val decode : string -> t
(** Raises [Malformed]. *)

val reverse : t -> t
(** The path as seen by the replying end host: segments and hops in reverse
    order, construction-direction flags flipped, positioned at the first
    hop. [seg_id] values are preserved per segment as left by forwarding,
    which is exactly the state a reply needs. *)

