(** SCION addressing: isolation domains (ISD), AS numbers, and their
    combination (IA).

    AS numbers follow the SCION convention: values below 2^32 print as plain
    decimal (BGP-compatible range, e.g. ["559"]), larger values print as
    three colon-separated 16-bit hex groups (e.g. ["2:0:3b"]). An IA prints
    as ["<isd>-<as>"], e.g. ["71-2:0:3b"] or ["64-559"]. *)

type isd = int
(** 16-bit isolation-domain identifier. 0 is the wildcard. *)

type asn
(** 48-bit AS number. *)

type t = { isd : isd; asn : asn }
(** An ISD-AS pair. *)

val asn_to_int : asn -> int

val make : int -> int -> t
(** [make isd asn_int] builds an IA from raw integers. *)

val of_string : string -> t
(** Parses ["71-2:0:3b"]. Raises [Invalid_argument] on malformed input. *)

val to_string : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int

val encode : Scion_util.Rw.Writer.t -> t -> unit
(** 8-byte wire form: 16-bit ISD then 48-bit AS, big-endian. *)

val decode : Scion_util.Rw.Reader.t -> t

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
