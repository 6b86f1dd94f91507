(** Memoisation of signature verification.

    Beacon propagation re-verifies the same (message, signature, key)
    triples many times: every PCB received by an AS contains the signatures
    of all upstream ASes, and the same PCB prefix flows down every branch of
    the ISD. Verification results are immutable facts, so a global cache is
    sound and turns the beaconing cost from quadratic to linear in practice.

    The same table also holds the certificate-chain signature verdicts
    ({!Pcb.verify} passes {!verify} to [Scion_cppki.Verify.chain]): the TRC
    root key over the CA certificate and the CA key over the AS
    certificate, keyed like every other entry by issuer key, signature and
    the exact {!Scion_cppki.Cert.signed_bytes}. A renewed, re-issued or
    seized certificate has different bytes and misses; a TRC rotation
    ({!set_epoch}) drops every earlier verdict. Only signature verdicts are
    cached: validity windows and the other chain checks run on every call.

    Keys are the exact (issuer key, signature, message) bytes, hashed on
    the signature alone and compared in full, so a lookup runs no digest
    and a verdict answers only for the bytes it was proved on. The table
    holds each message it has seen until the next {!set_epoch} or
    {!clear}. *)

type t

val create : unit -> t
val global : t
(** A process-wide cache used by default. *)

val set_epoch : t -> string -> unit
(** Bind the cache to a key epoch — canonically the concatenation of every
    trusted TRC's [isd:serial] pair. Changing it drops every entry, so
    verdicts produced under a rotated-out (possibly compromised) trust root
    cannot keep validating signatures after a TRC update. Setting the
    current epoch is a no-op. *)

val verify :
  t -> Scion_crypto.Schnorr.public_key -> msg:string -> signature:string -> bool

val verify_batch :
  t -> (Scion_crypto.Schnorr.public_key * string * string) list -> bool list
(** [verify_batch t [(pub, msg, signature); ...]] returns one verdict per
    item, in order. Cached triples are answered from the table; the misses
    are checked in a single {!Scion_crypto.Schnorr.verify_batch}
    random-linear-combination pass, in first-seen order (a duplicate within
    the batch counts as a hit). If the batched check rejects, each miss is re-verified
    individually so verdicts stay exact per item. All results are cached. *)

val hits : t -> int
val misses : t -> int
val clear : t -> unit
