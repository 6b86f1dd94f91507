module Rw = Scion_util.Rw
module Schnorr = Scion_crypto.Schnorr

type profile = Open_source | Proprietary
type kind = Ca | As_signing

type t = {
  kind : kind;
  profile : profile;
  serial : int;
  subject : Scion_addr.Ia.t;
  pubkey : Schnorr.public_key;
  not_before : float;
  not_after : float;
  issuer : Scion_addr.Ia.t;
  issuer_key_name : string;
  signature : string;
}

(* The two profiles serialise the same fields in a different order (and with
   a different magic), standing in for the format divergence between the
   proprietary and open-source stacks that Section 4.5 describes. A verifier
   handles both because [signed_bytes] dispatches on the embedded profile. *)
let signed_bytes t =
  let w = Rw.Writer.create () in
  let kind_byte = match t.kind with Ca -> 1 | As_signing -> 2 in
  let subject () = Scion_addr.Ia.encode w t.subject in
  let issuer () =
    Scion_addr.Ia.encode w t.issuer;
    Rw.Writer.u16 w (String.length t.issuer_key_name);
    Rw.Writer.raw w t.issuer_key_name
  in
  let validity () =
    Rw.Writer.u64 w (Int64.of_float t.not_before);
    Rw.Writer.u64 w (Int64.of_float t.not_after)
  in
  let key () = Rw.Writer.raw w (Schnorr.public_to_string t.pubkey) in
  let serial () = Rw.Writer.u32_of_int w t.serial in
  (match t.profile with
  | Open_source ->
      Rw.Writer.raw w "OSCERT1";
      Rw.Writer.u8 w kind_byte;
      serial ();
      subject ();
      validity ();
      key ();
      issuer ()
  | Proprietary ->
      Rw.Writer.raw w "APCORE1";
      Rw.Writer.u8 w kind_byte;
      issuer ();
      subject ();
      key ();
      validity ();
      serial ());
  Rw.Writer.contents w

let sign ~kind ~profile ~serial ~subject ~pubkey ~validity:(not_before, not_after) ~issuer
    ~issuer_key_name ~issuer_priv =
  let unsigned =
    {
      kind;
      profile;
      serial;
      subject;
      pubkey;
      not_before;
      not_after;
      issuer;
      issuer_key_name;
      signature = "";
    }
  in
  { unsigned with signature = Schnorr.sign issuer_priv (signed_bytes unsigned) }

let in_validity t now = now >= t.not_before && now <= t.not_after

let remaining_fraction t now =
  let span = t.not_after -. t.not_before in
  if span <= 0.0 then 0.0 else Float.max 0.0 (Float.min 1.0 ((t.not_after -. now) /. span))

let fingerprint t = Scion_util.Hex.short ~n:12 (Scion_crypto.Sha256.digest (signed_bytes { t with signature = "" }))

let pp fmt t =
  Format.fprintf fmt "%s cert #%d for %s (by %s, %s)"
    (match t.kind with Ca -> "CA" | As_signing -> "AS")
    t.serial
    (Scion_addr.Ia.to_string t.subject)
    (Scion_addr.Ia.to_string t.issuer)
    (match t.profile with Open_source -> "open-source" | Proprietary -> "proprietary")
