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
val one : felem
val of_int : int -> felem
val equal : felem -> felem -> bool
val mul : felem -> felem -> felem

val sqr : felem -> felem
(** [sqr x = mul x x], sharing the off-diagonal limb products — roughly half
    the cost of a general multiply. Exponentiation ladders are ~80%
    squarings, so they call this instead of {!mul}. *)

val pow : felem -> Bignum.t -> felem
(** [pow b e] computes [b ^ e] in the field with a 4-bit windowed ladder over
    the fast reduction (quarter the multiplies of plain square-and-multiply
    for 256-bit exponents). *)

val reduce_exponent : Bignum.t -> Bignum.t
(** Reduces an arbitrary value modulo [p - 1] (the {!Schnorr} exponent
    modulus) using the pseudo-Mersenne fold [2^256 === c + 1 (mod p - 1)]
    instead of generic binary long division. *)

val to_bytes : felem -> string
(** Fixed 32-byte big-endian encoding. *)

val of_bytes : string -> felem option
(** Decodes a 32-byte string; [None] if the value is >= p. *)
