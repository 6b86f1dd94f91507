(** Trust Root Configurations — the per-ISD trust anchors of the SCION
    control-plane PKI (Section 2 of the paper).

    A TRC names the ISD's core ASes, its authorized CA ASes, and a set of
    root public keys. The *base* TRC of an ISD is self-signed by its root
    keys (distributed out of band, e.g. by the bootstrapper); every
    subsequent update must carry signatures from a quorum of the previous
    TRC's root keys ("TRC chaining", Section 4.1.2). *)

type root = { name : string; key : Scion_crypto.Schnorr.public_key }

type t = {
  isd : int;
  base_number : int;  (** Increments only on trust re-establishment. *)
  serial : int;  (** Increments on every update. *)
  not_before : float;
  not_after : float;
  core_ases : Scion_addr.Ia.t list;
  ca_ases : Scion_addr.Ia.t list;  (** ASes allowed to operate a CA. *)
  roots : root list;
  quorum : int;  (** Votes required for an update. *)
  signatures : (string * string) list;  (** (root name, signature). *)
}

val sign_base :
  isd:int ->
  validity:float * float ->
  core_ases:Scion_addr.Ia.t list ->
  ca_ases:Scion_addr.Ia.t list ->
  quorum:int ->
  roots:(string * Scion_crypto.Schnorr.private_key * Scion_crypto.Schnorr.public_key) list ->
  t
(** Create and self-sign a base TRC (serial 1, base 1) with all roots. *)

val update :
  prev:t ->
  ?rotate_roots:root list ->
  validity:float * float ->
  votes:(string * Scion_crypto.Schnorr.private_key) list ->
  unit ->
  (t, string) result
(** Produce the successor TRC (serial + 1) signed by the given voters,
    which must be roots of [prev] and reach [prev.quorum]. It keeps the
    core and CA AS sets of [prev], and its roots unless [rotate_roots]
    replaces them. *)

val verify_chain : base:t -> t list -> (t, string) result
(** Walk [base -> updates...] and return the latest TRC if every link
    verifies: the base must be signed by all of its own roots, and each
    update needs serial continuity, the same ISD and a quorum of valid
    signatures by its predecessor's roots. *)

val in_validity : t -> float -> bool
val find_root : t -> string -> root option
