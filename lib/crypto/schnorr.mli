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

val derive : seed:string -> private_key * public_key
(** Derive a key pair from a seed string (used to give every simulated AS a
    stable identity). *)

val sign : private_key -> string -> string
(** [sign priv msg] returns a 64-byte signature. *)

val verify : public_key -> msg:string -> signature:string -> bool

val verify_batch : (public_key * string * string) list -> bool
(** [verify_batch [(pub, msg, signature); ...]] checks every signature in one
    random-linear-combination pass: one fixed-base comb power on the left and
    a single Straus multi-exponentiation on the right, sharing the ~256
    squarings of the ladder across the whole batch. The empty batch is
    [true]; a batch of one delegates to {!verify}. A valid batch always
    passes. An invalid batch fails unless the deterministically derived
    64-bit coefficients hit a ~2^-64 algebraic coincidence — ample for this
    deployment reproduction (callers needing exact per-item error reporting
    should fall back to {!verify} per item when the batch fails). *)

val public_to_string : public_key -> string
(** 32-byte encoding, suitable for embedding in certificates. *)
