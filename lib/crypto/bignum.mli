(** Arbitrary-precision unsigned integers (no bignum library is installed).

    Values are immutable arrays of base-2^16 limbs. Sizes in this repository
    stay small (≤ 512 bits), so schoolbook algorithms are used throughout;
    the hot path (Schnorr group arithmetic) lives in the specialised
    {!Modp} module instead. *)

type t

val zero : t
val one : t
val of_int : int -> t
(** Requires a non-negative argument. *)

val is_zero : t -> bool
val compare : t -> t -> int

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] requires [a >= b]. *)

val mul : t -> t -> t
val modulo : t -> t -> t
(** [modulo a b] is the remainder of [a / b]. Raises [Division_by_zero]
    when [b] is zero. *)

val of_bytes_be : string -> t
val to_bytes_be : ?width:int -> t -> string
(** [to_bytes_be ~width t] zero-pads to [width] bytes; raises
    [Invalid_argument] when the value does not fit. *)

val limbs : t -> int array
(** Little-endian base-2^16 limbs (exposed for {!Modp}); the returned array
    is fresh. *)

val of_limbs : int array -> t
(** Inverse of [limbs]; normalises leading zeros. *)

