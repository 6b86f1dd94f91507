module Rw = Scion_util.Rw
module Path = Scion_dataplane.Path

type peer_entry = {
  peer_ia : Scion_addr.Ia.t;
  peer_interface : int;
  peer_remote_if : int;
  peer_hop : Path.hop;
}

type as_entry = {
  ia : Scion_addr.Ia.t;
  hop : Path.hop;
  peers : peer_entry list;
  mtu : int;
  note : string;
  signature : string;
}

type t = { seg_id : int; timestamp : int32; entries : as_entry list }

let originate ~rng ~now =
  { seg_id = Scion_util.Rng.int rng 0x10000; timestamp = Int32.of_float now; entries = [] }

let origin t =
  match t.entries with
  | e :: _ -> e.ia
  | [] -> invalid_arg "Pcb.origin: empty PCB"

let leaf t =
  let rec last e = function [] -> e.ia | e' :: rest -> last e' rest in
  match t.entries with
  | e :: rest -> last e rest
  | [] -> invalid_arg "Pcb.leaf: empty PCB"

let num_entries t = List.length t.entries
let contains t ia = List.exists (fun e -> Scion_addr.Ia.equal e.ia ia) t.entries

let beta_at t i =
  let rec go beta idx = function
    | [] -> beta
    | e :: rest ->
        if idx >= i then beta
        else go (Path.chain_seg_id ~seg_id:beta ~mac:e.hop.Path.mac) (idx + 1) rest
  in
  go t.seg_id 0 t.entries

let encode_hop w (h : Path.hop) =
  Rw.Writer.u8 w h.Path.exp_time;
  Rw.Writer.u16 w h.Path.cons_ingress;
  Rw.Writer.u16 w h.Path.cons_egress;
  Rw.Writer.raw w h.Path.mac

(* An entry's signed encoding is its unsigned encoding followed by the
   signature, so the message entry [i] signs is a prefix of the encoding
   that carries entry [i]'s signature. *)
let encode_unsigned w e =
  Scion_addr.Ia.encode w e.ia;
  encode_hop w e.hop;
  Rw.Writer.u16 w (List.length e.peers);
  List.iter
    (fun p ->
      Scion_addr.Ia.encode w p.peer_ia;
      Rw.Writer.u16 w p.peer_interface;
      Rw.Writer.u16 w p.peer_remote_if;
      encode_hop w p.peer_hop)
    e.peers;
  Rw.Writer.u16 w e.mtu;
  Rw.Writer.u16 w (String.length e.note);
  Rw.Writer.raw w e.note

let encode_signature w e =
  Rw.Writer.u16 w (String.length e.signature);
  Rw.Writer.raw w e.signature

let encode_header w t =
  Rw.Writer.raw w "PCB1";
  Rw.Writer.u16 w t.seg_id;
  Rw.Writer.u32 w t.timestamp

let signed_bytes_upto t i =
  let w = Rw.Writer.create () in
  encode_header w t;
  List.iteri
    (fun idx e ->
      if idx <= i then encode_unsigned w e;
      if idx < i then encode_signature w e)
    t.entries;
  Rw.Writer.contents w

let newest_signed t =
  match List.rev t.entries with
  | [] -> None
  | e :: rest -> Some (e.ia, signed_bytes_upto t (List.length rest), e.signature)

(* Every entry advertises the same MTU and the longest hop-field
   validity. *)
let mtu = 1472
let exp_time = Path.max_exp_time

let extend t ~ia ~fwkey ~signer ~ingress ~egress ?(peers = []) ?(note = "") () =
  let key = Scion_dataplane.Fwkey.cmac_key fwkey in
  let n = num_entries t in
  let beta = beta_at t n in
  let hop_proto = { Path.exp_time; cons_ingress = ingress; cons_egress = egress; mac = String.make 6 '\x00' } in
  let mac = Path.compute_mac key ~seg_id:beta ~timestamp:t.timestamp hop_proto in
  let hop = { hop_proto with Path.mac } in
  let beta_next = Path.chain_seg_id ~seg_id:beta ~mac in
  let peer_entries =
    List.map
      (fun (peer_ia, local_if, remote_if) ->
        let ph_proto =
          { Path.exp_time; cons_ingress = local_if; cons_egress = egress; mac = String.make 6 '\x00' }
        in
        let pmac = Path.compute_mac key ~seg_id:beta_next ~timestamp:t.timestamp ph_proto in
        {
          peer_ia;
          peer_interface = local_if;
          peer_remote_if = remote_if;
          peer_hop = { ph_proto with Path.mac = pmac };
        })
      peers
  in
  let entry = { ia; hop; peers = peer_entries; mtu; note; signature = "" } in
  let draft = { t with entries = t.entries @ [ entry ] } in
  let msg = signed_bytes_upto draft n in
  let signature = Scion_crypto.Schnorr.sign signer msg in
  { t with entries = t.entries @ [ { entry with signature } ] }

type check_error =
  | Empty
  | Loop of Scion_addr.Ia.t
  | Bad_signature of Scion_addr.Ia.t * string
  | Unknown_as of Scion_addr.Ia.t

let check_error_to_string = function
  | Empty -> "empty PCB"
  | Loop ia -> Printf.sprintf "loop through %s" (Scion_addr.Ia.to_string ia)
  | Bad_signature (ia, m) ->
      Printf.sprintf "bad signature by %s: %s" (Scion_addr.Ia.to_string ia) m
  | Unknown_as ia -> Printf.sprintf "no certificate material for %s" (Scion_addr.Ia.to_string ia)

let structural_check t ~receiver =
  if t.entries = [] then Error Empty
  else if contains t receiver then Error (Loop receiver)
  else begin
    (* No AS may appear twice within the PCB itself. *)
    let rec dup_check seen = function
      | [] -> Ok ()
      | e :: rest ->
          if Scion_addr.Ia.Set.mem e.ia seen then Error (Loop e.ia)
          else dup_check (Scion_addr.Ia.Set.add e.ia seen) rest
    in
    dup_check Scion_addr.Ia.Set.empty t.entries
  end

let verify t ~cache ~lookup ~now =
  if t.entries = [] then Error Empty
  else begin
    (* Pass 1: certificate-chain checks and signed-message reconstruction
       for every entry; both certificate signatures go through [cache], so
       an unchanged chain is verified once per key epoch. One writer encodes
       the PCB once: entry i's message is snapshot after its unsigned
       fields, then its signature is appended for the entries after it.
       Pass 2: every entry signature is looked up in [cache], all of them
       even after a bad one, and the first bad entry is reported. In steady
       state a received PCB extends an already-verified prefix by one
       entry, so there is a single miss. During beaconing that entry was
       already proved in its sender's batch ([Sigcache.prove]), so the miss
       runs no crypto; only an entry nobody proved pays a Schnorr check
       here. *)
    let w = Rw.Writer.create () in
    encode_header w t;
    let rec collect acc = function
      | [] -> Ok (List.rev acc)
      | e :: rest -> (
          match lookup e.ia with
          | None -> Error (Unknown_as e.ia)
          | Some (as_cert, ca_cert, trc) -> (
              match
                Scion_cppki.Verify.chain ~verify:(Sigcache.verify cache) ~trc ~ca_cert ~as_cert
                  ~now
              with
              | Error err -> Error (Bad_signature (e.ia, Scion_cppki.Verify.error_to_string err))
              | Ok () ->
                  encode_unsigned w e;
                  let msg = Rw.Writer.contents w in
                  encode_signature w e;
                  collect ((e.ia, as_cert.Scion_cppki.Cert.pubkey, msg, e.signature) :: acc) rest))
    in
    match collect [] t.entries with
    | Error _ as err -> err
    | Ok items ->
        List.fold_left
          (fun first_bad (ia, pub, msg, signature) ->
            let ok = Sigcache.verify cache pub ~msg ~signature in
            match first_bad with
            | Ok () when not ok -> Error (Bad_signature (ia, "PCB entry signature does not verify"))
            | _ -> first_bad)
          (Ok ()) items
  end

let interface_fingerprint t =
  let w = Rw.Writer.create () in
  List.iter
    (fun e ->
      Scion_addr.Ia.encode w e.ia;
      Rw.Writer.u16 w e.hop.Path.cons_ingress;
      Rw.Writer.u16 w e.hop.Path.cons_egress)
    t.entries;
  Scion_crypto.Sha256.digest (Rw.Writer.contents w)

let expiry t =
  let info = { Path.cons_dir = true; peer = false; seg_id = t.seg_id; timestamp = t.timestamp } in
  List.fold_left
    (fun acc e -> Float.min acc (Path.hop_expiry info e.hop))
    Float.max_float t.entries

