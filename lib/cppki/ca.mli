(** The ISD certificate authority — the open-source smallstep-based CA the
    paper built for SCIERA (Section 4.5). Issues short-lived AS
    certificates, renews them automatically, and serves both encoding
    profiles so that proprietary and open-source ASes interoperate. *)

type t

val create :
  ia:Scion_addr.Ia.t ->
  priv:Scion_crypto.Schnorr.private_key ->
  cert:Cert.t ->
  ?default_validity:float ->
  unit ->
  t
(** [cert] must be a CA certificate whose subject is [ia]. Default validity
    of issued AS certificates is 3 days (the paper: "typically just a few
    days"). Raises [Invalid_argument] on a non-CA certificate. *)

val ia : t -> Scion_addr.Ia.t
val ca_cert : t -> Cert.t

val issue :
  t ->
  subject:Scion_addr.Ia.t ->
  pubkey:Scion_crypto.Schnorr.public_key ->
  profile:Cert.profile ->
  now:float ->
  Cert.t
(** Enrollment: issue a fresh AS certificate starting at [now]. *)

val renew : t -> current:Cert.t -> pubkey:Scion_crypto.Schnorr.public_key -> now:float -> (Cert.t, string) result
(** Automated renewal: accepts only if [current] was issued by this CA, is
    still within validity, and names the same subject. The new certificate
    keeps the subject's profile. *)

val needs_renewal : Cert.t -> now:float -> bool
(** Renewal policy used by the orchestrator: renew when less than one third
    of the validity period remains. *)
