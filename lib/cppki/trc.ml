module Rw = Scion_util.Rw
module Schnorr = Scion_crypto.Schnorr

type root = { name : string; key : Schnorr.public_key }

type t = {
  isd : int;
  base_number : int;
  serial : int;
  not_before : float;
  not_after : float;
  core_ases : Scion_addr.Ia.t list;
  ca_ases : Scion_addr.Ia.t list;
  roots : root list;
  quorum : int;
  signatures : (string * string) list;
}

let signed_bytes t =
  let w = Rw.Writer.create () in
  Rw.Writer.raw w "TRC1";
  Rw.Writer.u16 w t.isd;
  Rw.Writer.u16 w t.base_number;
  Rw.Writer.u16 w t.serial;
  Rw.Writer.u64 w (Int64.of_float t.not_before);
  Rw.Writer.u64 w (Int64.of_float t.not_after);
  let ias l =
    Rw.Writer.u16 w (List.length l);
    List.iter (Scion_addr.Ia.encode w) l
  in
  ias t.core_ases;
  ias t.ca_ases;
  Rw.Writer.u16 w (List.length t.roots);
  List.iter
    (fun r ->
      Rw.Writer.u16 w (String.length r.name);
      Rw.Writer.raw w r.name;
      Rw.Writer.raw w (Schnorr.public_to_string r.key))
    t.roots;
  Rw.Writer.u16 w t.quorum;
  Rw.Writer.contents w

let sign_base ~isd ~validity:(not_before, not_after) ~core_ases ~ca_ases ~quorum ~roots =
  let root_entries = List.map (fun (name, _, key) -> { name; key }) roots in
  let unsigned =
    {
      isd;
      base_number = 1;
      serial = 1;
      not_before;
      not_after;
      core_ases;
      ca_ases;
      roots = root_entries;
      quorum;
      signatures = [];
    }
  in
  let bytes = signed_bytes unsigned in
  { unsigned with signatures = List.map (fun (name, priv, _) -> (name, Schnorr.sign priv bytes)) roots }

let find_root t name = List.find_opt (fun r -> r.name = name) t.roots

let update ~prev ?rotate_roots ~validity:(not_before, not_after) ~votes () =
  let next =
    {
      prev with
      serial = prev.serial + 1;
      not_before;
      not_after;
      roots = (match rotate_roots with Some r -> r | None -> prev.roots);
      signatures = [];
    }
  in
  match List.filter (fun (name, _) -> find_root prev name = None) votes with
  | (name, _) :: _ -> Error (Printf.sprintf "voter %S is not a root of the previous TRC" name)
  | [] ->
  if List.length votes < prev.quorum then
    Error (Printf.sprintf "insufficient votes: %d < quorum %d" (List.length votes) prev.quorum)
  else begin
    let bytes = signed_bytes next in
    Ok { next with signatures = List.map (fun (name, priv) -> (name, Schnorr.sign priv bytes)) votes }
  end

let verify_base t =
  t.serial = 1
  && t.signatures <> []
  && List.for_all
       (fun r ->
         match List.assoc_opt r.name t.signatures with
         | None -> false
         | Some signature -> Schnorr.verify r.key ~msg:(signed_bytes { t with signatures = [] }) ~signature)
       t.roots

let verify_update ~prev next =
  if next.isd <> prev.isd then Error "ISD mismatch"
  else if next.serial <> prev.serial + 1 then
    Error (Printf.sprintf "serial discontinuity: %d after %d" next.serial prev.serial)
  else if next.base_number <> prev.base_number then Error "base number changed without re-establishment"
  else begin
    let bytes = signed_bytes { next with signatures = [] } in
    let valid_votes =
      List.filter
        (fun (name, signature) ->
          match find_root prev name with
          | None -> false
          | Some r -> Schnorr.verify r.key ~msg:bytes ~signature)
        next.signatures
    in
    if List.length valid_votes >= prev.quorum then Ok ()
    else Error (Printf.sprintf "only %d valid votes, quorum is %d" (List.length valid_votes) prev.quorum)
  end

let verify_chain ~base updates =
  if not (verify_base base) then Error "invalid base TRC"
  else begin
    let rec go prev = function
      | [] -> Ok prev
      | next :: rest -> (
          match verify_update ~prev next with Ok () -> go next rest | Error e -> Error e)
    in
    go base updates
  end

let in_validity t now = now >= t.not_before && now <= t.not_after
