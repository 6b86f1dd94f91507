(* Reference combinator: the straightforward [Combinator.build] the
   library's memoising one must match exactly. Every candidate rebuilds its
   own pieces from the PCBs, is validated by encoding a throwaway
   [Path.create], and is deduplicated by fingerprint, keeping the later of
   two equal traces; survivors are sorted by (hop count, fingerprint). *)

open Scion_controlplane
module Path = Scion_dataplane.Path
module Ia = Scion_addr.Ia
module Hop_pred = Scion_addr.Hop_pred

let num_hops (t : Combinator.fullpath) = List.length t.Combinator.interfaces

(* --- Pieces: slices of a segment prepared for one traversal direction --- *)

type piece = {
  info : Path.info;
  hops : Path.hop list;  (** Traversal order. *)
  trace : Hop_pred.hop list;  (** Traversal order, one per hop. *)
  piece_expiry : float;
  piece_mtu : int;
  peer_join : bool;  (** Ends (up) / starts (down) on a peering link. *)
}

let entry_array (pcb : Pcb.t) = Array.of_list pcb.Pcb.entries

(* Up piece: constructed core->leaf, traversed leaf->core(or cut), C=0.
   [from_idx] is the construction index where traversal stops. When [peer]
   is given, the final hop uses the peer entry's hop field (exit over the
   peering link) and the info field carries the P flag. *)
let up_piece (pcb : Pcb.t) ~from_idx ?peer () =
  let entries = entry_array pcb in
  let n = Array.length entries in
  assert (from_idx >= 0 && from_idx < n);
  let is_peer = peer <> None in
  let hop_of i =
    if i = from_idx then
      match peer with Some (pe : Pcb.peer_entry) -> pe.Pcb.peer_hop | None -> entries.(i).Pcb.hop
    else entries.(i).Pcb.hop
  in
  let info =
    {
      Path.cons_dir = false;
      peer = is_peer;
      seg_id = Pcb.beta_at pcb n;
      timestamp = pcb.Pcb.timestamp;
    }
  in
  let idxs = List.init (n - from_idx) (fun k -> n - 1 - k) in
  let hops = List.map hop_of idxs in
  let trace =
    List.map
      (fun i ->
        let e = entries.(i) in
        let h = hop_of i in
        (* Traversal direction flips roles: ingress = cons_egress. *)
        { Hop_pred.ia = e.Pcb.ia; ingress = h.Path.cons_egress; egress = h.Path.cons_ingress })
      idxs
  in
  let mtu = List.fold_left (fun acc i -> min acc entries.(i).Pcb.mtu) max_int idxs in
  let expiry =
    List.fold_left (fun acc h -> Float.min acc (Path.hop_expiry info h)) Float.max_float hops
  in
  { info; hops; trace; piece_expiry = expiry; piece_mtu = mtu; peer_join = is_peer }

(* Down piece: traversed in construction direction from [from_idx], C=1. *)
let down_piece (pcb : Pcb.t) ~from_idx ?peer () =
  let entries = entry_array pcb in
  let n = Array.length entries in
  assert (from_idx >= 0 && from_idx < n);
  let is_peer = peer <> None in
  let hop_of i =
    if i = from_idx then
      match peer with Some (pe : Pcb.peer_entry) -> pe.Pcb.peer_hop | None -> entries.(i).Pcb.hop
    else entries.(i).Pcb.hop
  in
  let seg_id = if is_peer then Pcb.beta_at pcb (from_idx + 1) else Pcb.beta_at pcb from_idx in
  let info = { Path.cons_dir = true; peer = is_peer; seg_id; timestamp = pcb.Pcb.timestamp } in
  let idxs = List.init (n - from_idx) (fun k -> from_idx + k) in
  let hops = List.map hop_of idxs in
  let trace =
    List.map
      (fun i ->
        let e = entries.(i) in
        let h = hop_of i in
        { Hop_pred.ia = e.Pcb.ia; ingress = h.Path.cons_ingress; egress = h.Path.cons_egress })
      idxs
  in
  let mtu = List.fold_left (fun acc i -> min acc entries.(i).Pcb.mtu) max_int idxs in
  let expiry =
    List.fold_left (fun acc h -> Float.min acc (Path.hop_expiry info h)) Float.max_float hops
  in
  { info; hops; trace; piece_expiry = expiry; piece_mtu = mtu; peer_join = is_peer }

(* Core segments are received like up segments and traversed in reverse. *)
let core_piece pcb = up_piece pcb ~from_idx:0 ()

(* --- Assembly --- *)

let trace_fingerprint trace =
  let w = Scion_util.Rw.Writer.create () in
  List.iter
    (fun h ->
      Ia.encode w h.Hop_pred.ia;
      Scion_util.Rw.Writer.u16 w h.Hop_pred.ingress;
      Scion_util.Rw.Writer.u16 w h.Hop_pred.egress)
    trace;
  Scion_crypto.Sha256.digest (Scion_util.Rw.Writer.contents w)

(* Merge traces across pieces: at a non-peering segment change the joint AS
   appears as the last hop of one piece and the first of the next — collapse
   into one trace hop. Peering joins keep both hops (two distinct ASes). *)
let merge_traces pieces =
  let rec go acc = function
    | [] -> List.rev acc
    | [ p ] -> List.rev_append acc p.trace
    | p :: q :: tail ->
        if p.peer_join || q.peer_join then go (List.rev_append p.trace acc) (q :: tail)
        else begin
          match (List.rev p.trace, q.trace) with
          | last :: prefix_rev, first :: q_tail ->
              assert (Ia.equal last.Hop_pred.ia first.Hop_pred.ia);
              let merged = { last with Hop_pred.egress = first.Hop_pred.egress } in
              (* The joint AS keeps p's ingress and q's egress; drop the
                 duplicate first hop of q. *)
              let q' = { q with trace = merged :: q_tail } in
              go (List.rev_append (List.rev prefix_rev) acc) (q' :: tail)
          | _ -> go (List.rev_append p.trace acc) (q :: tail)
        end
  in
  go [] pieces

let assemble ~src ~dst pieces =
  let trace = merge_traces pieces in
  (* Loop check: each AS at most once in the merged trace. *)
  let rec loop_free seen = function
    | [] -> true
    | h :: rest ->
        (not (Ia.Set.mem h.Hop_pred.ia seen)) && loop_free (Ia.Set.add h.Hop_pred.ia seen) rest
  in
  if not (loop_free Ia.Set.empty trace) then None
  else begin
    let segments = List.map (fun p -> (p.info, p.hops)) pieces in
    match Path.create segments with
    | exception Path.Malformed _ -> None
    | _probe ->
        Some
          {
            Combinator.src;
            dst;
            segments;
            interfaces = trace;
            expiry = List.fold_left (fun a p -> Float.min a p.piece_expiry) Float.max_float pieces;
            mtu = List.fold_left (fun a p -> min a p.piece_mtu) max_int pieces;
            fingerprint = trace_fingerprint trace;
            wire = "";
          }
  end

(* Every valid, loop-free candidate, latest-enumerated first, before
   deduplication. *)
let assembled ~ups ~cores ~downs ~src ~dst ~src_core ~dst_core =
  let candidates = ref [] in
  let add pieces = candidates := pieces :: !candidates in
  let up_full u = up_piece u ~from_idx:0 () in
  let down_full d = down_piece d ~from_idx:0 () in
  (* Core-to-core: a core segment originated at dst, received at src. *)
  if src_core && dst_core then
    List.iter
      (fun c -> if Ia.equal (Pcb.leaf c) src && Ia.equal (Pcb.origin c) dst then add [ core_piece c ])
      cores;
  (* Core source reaching a leaf. *)
  if src_core && not dst_core then begin
    List.iter (fun d -> if Ia.equal (Pcb.origin d) src then add [ down_full d ]) downs;
    List.iter
      (fun c ->
        if Ia.equal (Pcb.leaf c) src then
          List.iter
            (fun d -> if Ia.equal (Pcb.origin d) (Pcb.origin c) then add [ core_piece c; down_full d ])
            downs)
      cores
  end;
  (* Leaf source reaching a core. *)
  if (not src_core) && dst_core then begin
    List.iter (fun u -> if Ia.equal (Pcb.origin u) dst then add [ up_full u ]) ups;
    List.iter
      (fun u ->
        List.iter
          (fun c ->
            if Ia.equal (Pcb.leaf c) (Pcb.origin u) && Ia.equal (Pcb.origin c) dst then
              add [ up_full u; core_piece c ])
          cores)
      ups
  end;
  if (not src_core) && not dst_core then begin
    List.iter
      (fun u ->
        let u_entries = entry_array u in
        (* On-path: dst sits on the up segment. *)
        Array.iteri
          (fun i (e : Pcb.as_entry) ->
            if i > 0 && Ia.equal e.Pcb.ia dst then add [ up_piece u ~from_idx:i () ])
          u_entries;
        List.iter
          (fun d ->
            let d_entries = entry_array d in
            (* Same core AS: plain up + down. *)
            if Ia.equal (Pcb.origin u) (Pcb.origin d) then add [ up_full u; down_full d ];
            (* On-path: src sits on the down segment. *)
            Array.iteri
              (fun j (e : Pcb.as_entry) ->
                if j > 0 && Ia.equal e.Pcb.ia src then add [ down_piece d ~from_idx:j () ])
              d_entries;
            (* Shortcut: common non-core AS below both cores. *)
            Array.iteri
              (fun i (eu : Pcb.as_entry) ->
                if i > 0 then
                  Array.iteri
                    (fun j (ed : Pcb.as_entry) ->
                      if j > 0 && Ia.equal eu.Pcb.ia ed.Pcb.ia then
                        add [ up_piece u ~from_idx:i (); down_piece d ~from_idx:j () ])
                    d_entries)
              u_entries;
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
                      d_entries)
                  eu.Pcb.peers)
              u_entries)
          downs;
        (* Up + core + down. *)
        List.iter
          (fun c ->
            if Ia.equal (Pcb.leaf c) (Pcb.origin u) then
              List.iter
                (fun d ->
                  if Ia.equal (Pcb.origin d) (Pcb.origin c) then
                    add [ up_full u; core_piece c; down_full d ])
                downs)
          cores)
      ups
  end;
  List.filter_map (assemble ~src ~dst) !candidates

let build ~ups ~cores ~downs ~src ~dst ~src_core ~dst_core =
  let assembled = assembled ~ups ~cores ~downs ~src ~dst ~src_core ~dst_core in
  (* Dedup by fingerprint, keeping the later-enumerated instance; equal
     traces can come from different segments. *)
  let seen = Hashtbl.create 64 in
  let unique =
    List.filter
      (fun fp ->
        if Hashtbl.mem seen fp.Combinator.fingerprint then false
        else begin
          Hashtbl.add seen fp.Combinator.fingerprint ();
          true
        end)
      assembled
  in
  List.sort
    (fun a b ->
      let c = Stdlib.compare (num_hops a) (num_hops b) in
      if c <> 0 then c else Stdlib.compare a.Combinator.fingerprint b.Combinator.fingerprint)
    unique
