type error =
  | As_cert_invalid of string
  | Ca_cert_invalid of string
  | Trc_invalid of string

let error_to_string = function
  | As_cert_invalid m -> "AS certificate invalid: " ^ m
  | Ca_cert_invalid m -> "CA certificate invalid: " ^ m
  | Trc_invalid m -> "TRC invalid: " ^ m

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

(* The one signature check; [verify] may answer from a verdict cache, so
   nothing else in [chain] goes through it. *)
let signed_by ~verify key cert =
  verify key ~msg:(Cert.signed_bytes cert) ~signature:cert.Cert.signature

let chain ~verify ~trc ~ca_cert ~as_cert ~now =
  let* () = if Trc.in_validity trc now then Ok () else Error (Trc_invalid "outside validity window") in
  let* () =
    if ca_cert.Cert.kind = Cert.Ca then Ok () else Error (Ca_cert_invalid "not a CA certificate")
  in
  let* () =
    if List.exists (Scion_addr.Ia.equal ca_cert.Cert.subject) trc.Trc.ca_ases then Ok ()
    else Error (Ca_cert_invalid "subject is not an authorized CA AS in the TRC")
  in
  let* root =
    match Trc.find_root trc ca_cert.Cert.issuer_key_name with
    | Some r -> Ok r
    | None -> Error (Ca_cert_invalid ("unknown TRC root key " ^ ca_cert.Cert.issuer_key_name))
  in
  let* () =
    if signed_by ~verify root.Trc.key ca_cert then Ok ()
    else Error (Ca_cert_invalid "signature does not verify under the TRC root key")
  in
  let* () =
    if Cert.in_validity ca_cert now then Ok () else Error (Ca_cert_invalid "outside validity window")
  in
  let* () =
    if as_cert.Cert.kind = Cert.As_signing then Ok ()
    else Error (As_cert_invalid "not an AS certificate")
  in
  let* () =
    if Scion_addr.Ia.equal as_cert.Cert.issuer ca_cert.Cert.subject then Ok ()
    else Error (As_cert_invalid "issuer does not match the CA certificate subject")
  in
  let* () =
    if signed_by ~verify ca_cert.Cert.pubkey as_cert then Ok ()
    else Error (As_cert_invalid "signature does not verify under the CA key")
  in
  if Cert.in_validity as_cert now then Ok ()
  else Error (As_cert_invalid "outside validity window")
