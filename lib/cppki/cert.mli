(** Control-plane certificates: CA certificates (signed by a TRC root key)
    and AS certificates (signed by a CA).

    AS certificates are deliberately short-lived — a few days — which is why
    the paper insists on fully automated issuance and renewal (Section 4.5).
    Two encoding profiles exist, mirroring the paper's interoperability
    lesson: the proprietary stack and the open-source stack serialise the
    same fields in different orders, and verifiers must accept both. *)

type profile = Open_source | Proprietary

type kind = Ca | As_signing

type t = {
  kind : kind;
  profile : profile;
  serial : int;
  subject : Scion_addr.Ia.t;
  pubkey : Scion_crypto.Schnorr.public_key;
  not_before : float;
  not_after : float;
  issuer : Scion_addr.Ia.t;
  issuer_key_name : string;
      (** For CA certs: the TRC root key name. For AS certs: "ca". *)
  signature : string;
}

val signed_bytes : t -> string
(** Canonical bytes covered by the signature; depends on [profile]. *)

val sign :
  kind:kind ->
  profile:profile ->
  serial:int ->
  subject:Scion_addr.Ia.t ->
  pubkey:Scion_crypto.Schnorr.public_key ->
  validity:float * float ->
  issuer:Scion_addr.Ia.t ->
  issuer_key_name:string ->
  issuer_priv:Scion_crypto.Schnorr.private_key ->
  t

val in_validity : t -> float -> bool
val remaining_fraction : t -> float -> float
(** Fraction of the validity period still ahead at the given time (clamped
    to \[0, 1\]); renewal policies trigger below a threshold. *)

