(** Memoisation of signature verification.

    Beacon propagation re-verifies the same (message, signature, key)
    triples many times: every PCB received by an AS contains the signatures
    of all upstream ASes, and the same PCB prefix flows down every branch of
    the ISD. Verification results are immutable facts, so caching them is
    sound and turns the beaconing cost from quadratic to linear in practice.
    Each {!Mesh} owns its cache, so no mesh's verdicts or counts depend on
    what another mesh verified earlier in the process.

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
    and a verdict answers only for the bytes it was proved on.

    The table keeps two generations. {!next_generation} (called at the
    start of every {!Mesh.run_beaconing}) drops every entry that was
    neither inserted nor read since the previous call, so a verdict that
    keeps being read, such as a certificate-chain verdict, survives, while
    one beaconing run's one-off beacon verdicts are gone two runs later.
    {!set_epoch} and {!clear} drop everything.

    An entry is [valid], [invalid] or {e proved, not yet read}: {!prove}
    checked it ahead of its first lookup. The counters count lookups as if
    {!prove} had never run: a proved entry's first lookup is a {b miss}
    that runs no crypto and turns it [valid]; later lookups are hits. *)

type t

val create : unit -> t
val global : t
(** The process-wide tally: every other cache also adds its hits and misses
    here, and {!clear} zeroes it. It holds no verdict any mesh reads. *)

val set_epoch : t -> string -> unit
(** Bind the cache to a key epoch — canonically the concatenation of every
    trusted TRC's [isd:serial] pair. Changing it drops every entry, so
    verdicts produced under a rotated-out (possibly compromised) trust root
    cannot keep validating signatures after a TRC update. Setting the
    current epoch is a no-op. *)

val verify :
  t -> Scion_crypto.Schnorr.public_key -> msg:string -> signature:string -> bool
(** The verdict for one triple: from the table when it holds one (a hit,
    or the miss that first reads a {!prove}d entry), otherwise from one
    {!Scion_crypto.Schnorr.verify}, which is then cached (a miss). *)

val prove :
  t -> (Scion_crypto.Schnorr.public_key * string * string) list -> unit
(** [prove t items] checks, in one {!Scion_crypto.Schnorr.verify_batch}
    pass, every item the table holds in no state, first-seen and once
    each, and records them as proved, not yet read. It counts nothing. If
    the batch rejects, it records nothing, so every later lookup of those
    items runs Schnorr as before and gets its exact verdict. Hit and miss
    counts, and every verdict, are the same with or without a [prove]. *)

val next_generation : t -> unit
(** Start a new generation: drop every entry neither inserted nor read
    since the previous call, proved-but-unread entries included. Counters
    are untouched. *)

val hits : t -> int
val misses : t -> int
val clear : t -> unit
