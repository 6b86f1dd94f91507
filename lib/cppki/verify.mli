(** Certificate-chain verification: AS certificate → CA certificate → TRC
    root key, with validity-window and authorization checks. This is what a
    control service runs before trusting a PCB signature. *)

type error =
  | As_cert_invalid of string
  | Ca_cert_invalid of string
  | Trc_invalid of string

val error_to_string : error -> string

val chain :
  verify:(Scion_crypto.Schnorr.public_key -> msg:string -> signature:string -> bool) ->
  trc:Trc.t ->
  ca_cert:Cert.t ->
  as_cert:Cert.t ->
  now:float ->
  (unit, error) result
(** Full chain check: the TRC is within validity; the CA certificate's
    subject is an authorized CA AS of the TRC and its signature verifies
    under the named TRC root key; the AS certificate verifies under the CA
    key and is within validity; issuers line up.

    Both certificate signatures are checked with [verify] over
    {!Cert.signed_bytes}: pass {!Scion_crypto.Schnorr.verify} for an
    uncached check, or a verdict cache's lookup (the control plane passes
    [Sigcache.verify]). Schnorr verification is a pure function of key,
    message and signature, so a cached verdict is exact; every other check
    runs on every call, whatever [verify] is. *)
