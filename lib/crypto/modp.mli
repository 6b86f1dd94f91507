(** Fast arithmetic modulo the fixed 256-bit prime
    [p = 2^256 - 2^32 - 977] (the secp256k1 field prime, chosen because its
    pseudo-Mersenne form allows multiplication-free reduction). This is the
    group in which {!Schnorr} signatures live; signing and verification are
    frequent (every PCB AS entry is signed and re-verified at each hop), so
    generic square-and-multiply over {!Bignum.modulo} would be too slow. *)

type felem
(** A field element, always fully reduced (< p). *)

val p : Bignum.t
val zero : felem
val of_int : int -> felem
val equal : felem -> felem -> bool
val mul : felem -> felem -> felem

type comb
(** A Lim-Lee comb table for one fixed base: 4 teeth, so 16 field elements
    (15 besides [one]), about 1.6 KB on the heap. Building one costs 192
    squarings and 11 multiplies, about a variable-base ladder's worth;
    every later power through it costs 64 squarings and at most 64
    multiplies. *)

val comb : felem -> comb
(** [comb b] builds [b]'s table. *)

val comb_pow : comb -> Bignum.t -> felem
(** [comb_pow (comb b) e = b ^ e] for [0 <= e < 2^256]; raises
    [Invalid_argument] on a wider exponent. *)

val comb_pow_multi : (comb * Bignum.t) array -> (felem * int) array -> felem
(** [comb_pow_multi combs smalls] is the product of every [comb_pow c e] in
    [combs] and every [b ^ z] in [smalls] ([z >= 0]), in one shared
    schedule of 64 squarings, with each small base multiplied in bit by
    bit. Raises [Invalid_argument] as {!comb_pow} does, or on a negative
    [z]. *)

type wide_comb
(** A wider Lim-Lee comb for one long-lived base: 8 teeth of 32 columns,
    split into 4 blocks of 8 columns with one 255-entry sub-table each, so
    1020 field elements (about 100 KB). Building one costs 248 squarings
    and 988 multiplies; a power through it costs 7 squarings and at most
    32 multiplies. Too large per key, it suits a constant base such as
    {!Schnorr}'s generator. *)

val wide_comb : felem -> wide_comb

val wide_comb_pow : wide_comb -> Bignum.t -> felem
(** [wide_comb_pow (wide_comb b) e = b ^ e] for [0 <= e < 2^256]; raises
    [Invalid_argument] on a wider exponent. *)

val reduce_exponent : Bignum.t -> Bignum.t
(** Reduces an arbitrary value modulo [p - 1] (the {!Schnorr} exponent
    modulus) using the pseudo-Mersenne fold [2^256 === c + 1 (mod p - 1)]
    instead of generic binary long division. *)

val to_bytes : felem -> string
(** Fixed 32-byte big-endian encoding. *)

val of_bytes : string -> felem option
(** Decodes a 32-byte string; [None] if the value is >= p. *)
