(** Big-endian binary readers and writers used by all wire encodings
    (SCION headers, PCBs, certificates). Readers raise [Truncated] on
    out-of-bounds access, which decoders translate into parse errors. *)

exception Truncated

module Writer : sig
  type t

  val create : unit -> t
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int32 -> unit
  val u32_of_int : t -> int -> unit
  val u64 : t -> int64 -> unit
  val raw : t -> string -> unit

  val contents : t -> string
  (** Snapshot of everything written so far. *)
end

module Reader : sig
  type t

  val of_string : string -> t
  val remaining : t -> int
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int32
  val u32_to_int : t -> int
  val raw : t -> int -> string
  val expect_end : t -> unit
  (** Raises [Truncated] if any bytes remain. *)
end
