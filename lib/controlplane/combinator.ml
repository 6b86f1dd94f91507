module Path = Scion_dataplane.Path
module Ia = Scion_addr.Ia
module Hop_pred = Scion_addr.Hop_pred

type fullpath = {
  src : Ia.t;
  dst : Ia.t;
  segments : (Path.info * Path.hop list) list;
  interfaces : Hop_pred.hop list;
  expiry : float;
  mtu : int;
  fingerprint : string;
  mutable wire : string;
}

(* Forwarding writes [seg_id] into the path's info records, so each
   instance gets its own copies; the hop records are immutable. *)
let fresh_raw t =
  Path.create
    (List.map
       (fun ((info : Path.info), hops) -> ({ info with Path.seg_id = info.Path.seg_id }, hops))
       t.segments)

let num_hops t = List.length t.interfaces
let contains_ia t ia = List.exists (fun h -> Ia.equal h.Hop_pred.ia ia) t.interfaces

let interface_ids t =
  List.concat_map
    (fun h ->
      let ing = if h.Hop_pred.ingress <> 0 then [ (h.Hop_pred.ia, h.Hop_pred.ingress) ] else [] in
      let egr = if h.Hop_pred.egress <> 0 then [ (h.Hop_pred.ia, h.Hop_pred.egress) ] else [] in
      ing @ egr)
    t.interfaces

let disjointness a b =
  let module S = Set.Make (struct
    type t = Ia.t * int

    let compare (ia1, if1) (ia2, if2) =
      let c = Ia.compare ia1 ia2 in
      if c <> 0 then c else Stdlib.compare if1 if2
  end) in
  let sa = S.of_list (interface_ids a) and sb = S.of_list (interface_ids b) in
  let total = S.cardinal sa + S.cardinal sb in
  if total = 0 then 1.0
  else begin
    let shared = S.cardinal (S.inter sa sb) in
    float_of_int (total - (2 * shared)) /. float_of_int total
  end

(* --- Pieces: slices of a segment prepared for one traversal direction --- *)

type piece = {
  seg : Path.info * Path.hop list;  (** Traversal order; shared, never written. *)
  trace : Hop_pred.hop list;  (** Traversal order, one per hop. *)
  piece_expiry : float;
  piece_mtu : int;
  peer_join : bool;  (** Ends (up) / starts (down) on a peering link. *)
}

(* A segment as one lookup reads it: entries, origin and leaf are taken
   once, and the piece of the whole segment is built on first use and then
   shared by every candidate that traverses it. A PCB is viewed in one role
   (up, core or down) per lookup, so one slot suffices. *)
type view = {
  pcb : Pcb.t;
  entries : Pcb.as_entry array;
  origin : Ia.t;
  leaf : Ia.t;
  mutable full : piece option;
}

let view pcb =
  {
    pcb;
    entries = Array.of_list pcb.Pcb.entries;
    origin = Pcb.origin pcb;
    leaf = Pcb.leaf pcb;
    full = None;
  }

(* Construction indices [from_idx..n-1], in traversal order. *)
let piece v ~cons_dir ~from_idx ~peer =
  let entries = v.entries in
  let n = Array.length entries in
  assert (from_idx >= 0 && from_idx < n);
  let is_peer = peer <> None in
  let hop_of i =
    if i = from_idx then
      match peer with Some (pe : Pcb.peer_entry) -> pe.Pcb.peer_hop | None -> entries.(i).Pcb.hop
    else entries.(i).Pcb.hop
  in
  (* Up (and core) pieces were constructed core->leaf and are traversed
     leaf->core (or cut), C=0; down pieces are traversed in construction
     direction from [from_idx], C=1. *)
  let seg_id =
    if not cons_dir then Pcb.beta_at v.pcb n
    else if is_peer then Pcb.beta_at v.pcb (from_idx + 1)
    else Pcb.beta_at v.pcb from_idx
  in
  let info = { Path.cons_dir; peer = is_peer; seg_id; timestamp = v.pcb.Pcb.timestamp } in
  let idxs =
    if cons_dir then List.init (n - from_idx) (fun k -> from_idx + k)
    else List.init (n - from_idx) (fun k -> n - 1 - k)
  in
  let hops = List.map hop_of idxs in
  let trace =
    List.map2
      (fun i (h : Path.hop) ->
        let ia = entries.(i).Pcb.ia in
        (* Against construction direction, ingress = cons_egress. *)
        if cons_dir then { Hop_pred.ia; ingress = h.Path.cons_ingress; egress = h.Path.cons_egress }
        else { Hop_pred.ia; ingress = h.Path.cons_egress; egress = h.Path.cons_ingress })
      idxs hops
  in
  let mtu = List.fold_left (fun acc i -> min acc entries.(i).Pcb.mtu) max_int idxs in
  let expiry =
    List.fold_left (fun acc h -> Float.min acc (Path.hop_expiry info h)) Float.max_float hops
  in
  { seg = (info, hops); trace; piece_expiry = expiry; piece_mtu = mtu; peer_join = is_peer }

(* [from_idx] is the construction index where an up traversal stops and a
   down traversal starts. With [peer], that hop uses the peer entry's hop
   field (the peering link) and the info field carries the P flag. *)
let up_piece v ~from_idx ?peer () = piece v ~cons_dir:false ~from_idx ~peer
let down_piece v ~from_idx ?peer () = piece v ~cons_dir:true ~from_idx ~peer

let full v ~cons_dir =
  match v.full with
  | Some p -> p
  | None ->
      let p = piece v ~cons_dir ~from_idx:0 ~peer:None in
      v.full <- Some p;
      p

(* Core segments are received like up segments and traversed in reverse. *)
let up_full u = full u ~cons_dir:false
let core_full c = full c ~cons_dir:false
let down_full d = full d ~cons_dir:true

(* --- Assembly --- *)

exception Loop

(* Merge the pieces' traces, newest hop first: at a non-peering segment
   change the joint AS ends one piece and starts the next, and the two
   collapse into one hop with the first's ingress and the second's egress.
   Peering joins keep both hops (two distinct ASes). Raises [Loop] when an
   AS would appear twice. *)
let merged_rev pieces =
  let push acc h =
    if List.exists (fun h' -> Ia.equal h'.Hop_pred.ia h.Hop_pred.ia) acc then raise Loop;
    h :: acc
  in
  let rec go acc prev_join = function
    | [] -> acc
    | p :: rest ->
        let acc =
          match (acc, p.trace) with
          | last :: acc_tail, first :: p_tail when not (prev_join || p.peer_join) ->
              assert (Ia.equal last.Hop_pred.ia first.Hop_pred.ia);
              let joint = { last with Hop_pred.egress = first.Hop_pred.egress } in
              List.fold_left push (joint :: acc_tail) p_tail
          | _ -> List.fold_left push acc p.trace
        in
        go acc p.peer_join rest
  in
  go [] false pieces

(* The fingerprint's preimage: per hop in traversal order, the IA's 8-byte
   wire form ({!Ia.encode}) then ingress and egress as big-endian u16.
   [rev] holds the [n] hops newest first, so the buffer fills from its
   end. *)
let trace_bytes rev n =
  let b = Bytes.create (12 * n) in
  let u16 off v =
    Bytes.unsafe_set b off (Char.unsafe_chr ((v lsr 8) land 0xFF));
    Bytes.unsafe_set b (off + 1) (Char.unsafe_chr (v land 0xFF))
  in
  List.iteri
    (fun k h ->
      let off = 12 * (n - 1 - k) in
      let ia = h.Hop_pred.ia in
      u16 off ia.Ia.isd;
      u16 (off + 2) (Ia.asn_to_int ia.Ia.asn lsr 32);
      u16 (off + 4) (Ia.asn_to_int ia.Ia.asn lsr 16);
      u16 (off + 6) (Ia.asn_to_int ia.Ia.asn);
      u16 (off + 8) h.Hop_pred.ingress;
      u16 (off + 10) h.Hop_pred.egress)
    rev;
  Bytes.unsafe_to_string b

let build ~ups ~cores ~downs ~src ~dst ~src_core ~dst_core =
  let ups = List.map view ups and downs = List.map view downs in
  (* Every use below joins a core segment at its origin: to dst itself
     when dst is a core AS, and otherwise to some down segment's origin.
     Only those segments are viewed, in their given order. *)
  let cores =
    List.filter_map
      (fun pcb ->
        let o = Pcb.origin pcb in
        let joins = if dst_core then Ia.equal o dst else List.exists (fun d -> Ia.equal o d.origin) downs in
        if joins then Some (view pcb) else None)
      cores
  in
  let candidates = ref [] in
  let add pieces = candidates := pieces :: !candidates in
  (* Core-to-core: a core segment originated at dst, received at src. *)
  if src_core && dst_core then
    List.iter
      (fun c -> if Ia.equal c.leaf src && Ia.equal c.origin dst then add [ core_full c ])
      cores;
  (* Core source reaching a leaf. *)
  if src_core && not dst_core then begin
    List.iter (fun d -> if Ia.equal d.origin src then add [ down_full d ]) downs;
    List.iter
      (fun c ->
        if Ia.equal c.leaf src then
          List.iter
            (fun d -> if Ia.equal d.origin c.origin then add [ core_full c; down_full d ])
            downs)
      cores
  end;
  (* Leaf source reaching a core. *)
  if (not src_core) && dst_core then begin
    List.iter (fun u -> if Ia.equal u.origin dst then add [ up_full u ]) ups;
    List.iter
      (fun u ->
        List.iter
          (fun c ->
            if Ia.equal c.leaf u.origin && Ia.equal c.origin dst then
              add [ up_full u; core_full c ])
          cores)
      ups
  end;
  if (not src_core) && not dst_core then begin
    List.iter
      (fun u ->
        (* On-path: dst sits on the up segment. *)
        Array.iteri
          (fun i (e : Pcb.as_entry) ->
            if i > 0 && Ia.equal e.Pcb.ia dst then add [ up_piece u ~from_idx:i () ])
          u.entries;
        List.iter
          (fun d ->
            (* Same core AS: plain up + down. *)
            if Ia.equal u.origin d.origin then add [ up_full u; down_full d ];
            (* On-path: src sits on the down segment. *)
            Array.iteri
              (fun j (e : Pcb.as_entry) ->
                if j > 0 && Ia.equal e.Pcb.ia src then add [ down_piece d ~from_idx:j () ])
              d.entries;
            (* Shortcut: common non-core AS below both cores. *)
            Array.iteri
              (fun i (eu : Pcb.as_entry) ->
                if i > 0 then
                  Array.iteri
                    (fun j (ed : Pcb.as_entry) ->
                      if j > 0 && Ia.equal eu.Pcb.ia ed.Pcb.ia then
                        add [ up_piece u ~from_idx:i (); down_piece d ~from_idx:j () ])
                    d.entries)
              u.entries;
            (* Peering: a peer entry on the up segment pointing at an AS of
               the down segment, with the reciprocal entry present. *)
            Array.iteri
              (fun i (eu : Pcb.as_entry) ->
                List.iter
                  (fun (pe : Pcb.peer_entry) ->
                    Array.iteri
                      (fun j (ed : Pcb.as_entry) ->
                        if Ia.equal pe.Pcb.peer_ia ed.Pcb.ia then
                          List.iter
                            (fun (pe' : Pcb.peer_entry) ->
                              if
                                Ia.equal pe'.Pcb.peer_ia eu.Pcb.ia
                                && pe.Pcb.peer_interface = pe'.Pcb.peer_remote_if
                                && pe.Pcb.peer_remote_if = pe'.Pcb.peer_interface
                              then
                                add
                                  [
                                    up_piece u ~from_idx:i ~peer:pe ();
                                    down_piece d ~from_idx:j ~peer:pe' ();
                                  ])
                            ed.Pcb.peers)
                      d.entries)
                  eu.Pcb.peers)
              u.entries)
          downs;
        (* Up + core + down. *)
        List.iter
          (fun c ->
            if Ia.equal c.leaf u.origin then
              List.iter
                (fun d ->
                  if Ia.equal d.origin c.origin then add [ up_full u; core_full c; down_full d ])
                downs)
          cores)
      ups
  end;
  (* [!candidates] is newest first, so the first of two equal traces met
     here is the later-enumerated one, and it is the one kept. Equal traces
     have equal preimages, so only the kept candidate is hashed. *)
  let seen = Hashtbl.create 16 in
  let keep acc pieces =
    match merged_rev pieces with
    | exception Loop -> acc
    | rev -> (
        let segments = List.map (fun p -> p.seg) pieces in
        match Path.check segments with
        | Error _ -> acc
        | Ok () ->
            let n = List.length rev in
            let preimage = trace_bytes rev n in
            if Hashtbl.mem seen preimage then acc
            else begin
              Hashtbl.add seen preimage ();
              let expiry = List.fold_left (fun a p -> Float.min a p.piece_expiry) Float.max_float pieces in
              let mtu = List.fold_left (fun a p -> min a p.piece_mtu) max_int pieces in
              let fingerprint = Scion_crypto.Sha256.digest preimage in
              (n, { src; dst; segments; interfaces = List.rev rev; expiry; mtu; fingerprint; wire = "" })
              :: acc
            end)
  in
  List.map snd
    (List.sort
       (fun (na, a) (nb, b) ->
         let c = Int.compare na nb in
         if c <> 0 then c else String.compare a.fingerprint b.fingerprint)
       (List.fold_left keep [] !candidates))
