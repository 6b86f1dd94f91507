(** Schnorr signatures over the multiplicative group of {!Modp}.

    This is the asymmetric primitive behind the control-plane PKI: TRC and
    AS-certificate signatures, and the per-AS signatures on PCB entries.
    Nonces are derived deterministically (HMAC of key and message), so
    signing is reproducible and never reuses a nonce.

    Note on parameters: we sign in Z_p^* with exponents reduced modulo
    [p - 1]. For a *deployment reproduction* the relevant behaviours are
    determinism, unforgeability against accidental corruption, and correct
    verification — all of which hold; production-grade discrete-log security
    margins are out of scope and documented in DESIGN.md. *)

type private_key

type public_key
(** A public key: its cached 32-byte encoding and a lazily built Lim-Lee
    comb table ({!Modp.comb}) over its field element, for the verifier's
    variable-base power [pub^e].

    The table has 4 teeth: 16 field elements, about 1.6 KB per key. It is
    built on the first verification against the key, for 192 squarings
    and 11 multiplies (about one 256-bit square-and-multiply); every later
    [pub^e] costs 64 squarings and at most 64 multiplies. 5 teeth measured
    no faster on a warm verify and slower on a cold one and in a batch (52
    columns, but a batch's 62-bit coefficients still need 62), at twice
    the memory; 8 teeth would need ~26 KB per key. Keys live in
    certificates, TRC roots and the mesh for the life of a mesh, so the
    tables do too; nothing is global.

    The record holds a lazy value, so never compare or hash keys
    structurally ([=], [compare], [Hashtbl.hash]): comparing an unbuilt
    table raises, and building it changes the key's structure. Compare
    {!public_to_string} instead. *)

(** Every power of the generator g (signing, key derivation, and the left
    side of every verification) goes through one shared
    {!Modp.wide_comb}: 8 teeth of 32 columns in 4 blocks of 8, so 4
    sub-tables of 255 entries, 1020 field elements (about 100 KB, the size
    of the nibble table it replaced). It is built on first use, in about
    0.6 ms (248 squarings, 988 multiplies), and then a power of g costs 7
    squarings and at most 32 multiplies instead of at most 64 multiplies.
    It is one process-wide constant; the per-key tables stay at 4 teeth. *)

val derive : seed:string -> private_key * public_key
(** Derive a key pair from a seed string (used to give every simulated AS a
    stable identity). *)

val sign : private_key -> string -> string
(** [sign priv msg] returns a 64-byte signature. *)

val verify : public_key -> msg:string -> signature:string -> bool

val verify_batch : (public_key * string * string) list -> bool
(** [verify_batch [(pub, msg, signature); ...]] checks every signature in one
    random-linear-combination pass: each item's equation
    [g^s = r * pub^e] is raised to a 62-bit coefficient [z], and the
    products are compared. The left side is one power of g. The right
    side is one 64-column comb schedule ({!Modp.comb_pow_multi}), so the
    batch shares 64 squarings: each [r^z] is multiplied in bit by bit
    (about 31 multiplies per item), and items under the same key (equal
    {!public_to_string}) share one entry through that key's table,
    [pub^(sum z*e mod (p-1))]. A batch from one signer thus costs one
    power of g, one comb pass and the [r^z] multiplies; each further
    distinct key adds one entry. Each exponent sum is reduced once.

    Coefficients are derived deterministically. The transcript is every
    item's challenge digest (which already binds [r], the key and the
    message, so no message is hashed twice) followed by its signature; it
    is hashed once, and the digest of that hash and [i / 4] gives 8 bytes
    to each of 4 items, masked to 62 bits ([0] becomes [1]).

    The empty batch is [true]; a batch of one delegates to {!verify}. A
    valid batch always passes. An invalid batch fails unless the
    coefficients hit a ~2^-62 algebraic coincidence, ample for this
    deployment reproduction. Without coefficients, a pair [(s1 + d,
    s2 - d)] under one key would pass. Callers needing exact per-item
    error reporting should fall back to {!verify} per item when the batch
    fails. *)

val public_to_string : public_key -> string
(** 32-byte encoding, suitable for embedding in certificates; cached in the
    key, so this allocates nothing. *)
