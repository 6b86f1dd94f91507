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

val to_int : t -> int
(** Raises [Invalid_argument] when the value exceeds [max_int]. *)

val is_zero : t -> bool
val is_odd : t -> bool
val compare : t -> t -> int
val equal : t -> t -> bool
val bit_length : t -> int

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] requires [a >= b]. *)

val mul : t -> t -> t
val divmod : t -> t -> t * t
(** [divmod a b] returns (quotient, remainder). Raises [Division_by_zero]
    when [b] is zero. *)

val modulo : t -> t -> t
val modpow : t -> t -> t -> t
(** [modpow base exp m] computes [base ^ exp mod m] with generic square-and-
    multiply; adequate for occasional use (exponent-field arithmetic). *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val of_bytes_be : string -> t
val to_bytes_be : ?width:int -> t -> string
(** [to_bytes_be ~width t] zero-pads to [width] bytes; raises
    [Invalid_argument] when the value does not fit. *)

val of_hex : string -> t
val to_hex : t -> string

val limbs : t -> int array
(** Little-endian base-2^16 limbs (exposed for {!Modp}); the returned array
    is fresh. *)

val of_limbs : int array -> t
(** Inverse of [limbs]; normalises leading zeros. *)

