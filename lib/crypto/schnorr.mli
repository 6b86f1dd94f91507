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

val derive : seed:string -> private_key * public_key
(** Derive a key pair from a seed string (used to give every simulated AS a
    stable identity). *)

val sign : private_key -> string -> string
(** [sign priv msg] returns a 64-byte signature. *)

val verify : public_key -> msg:string -> signature:string -> bool

val verify_batch : (public_key * string * string) list -> bool
(** [verify_batch [(pub, msg, signature); ...]] checks every signature in one
    random-linear-combination pass: one fixed-base power of the generator
    on the left and, on the right, one 64-column comb schedule through
    every key's table ({!Modp.comb_pow_multi}), so the batch shares 64
    squarings. The empty batch is [true]; a batch of one delegates to
    {!verify}. A valid batch always passes. An invalid batch fails unless
    the deterministically derived 62-bit coefficients hit a ~2^-62
    algebraic coincidence — ample for this deployment reproduction
    (callers needing exact per-item error reporting should fall back to
    {!verify} per item when the batch fails). *)

val public_to_string : public_key -> string
(** 32-byte encoding, suitable for embedding in certificates; cached in the
    key, so this allocates nothing. *)
