(* Differential conformance suite for the zero-copy forwarding fast path.

   [Router.process_view] must be decision-for-decision identical to the
   structured reference engine [Ref_router.process], and the wire buffer it
   patches in place must stay byte-identical to what re-encoding the
   structured packet would produce after every hop. These properties drive
   both engines in lockstep over randomized paths — valid chains, corrupted
   MACs, expired hops, ingress mismatches, segment crossovers, segments
   traversed against construction direction, peering segments and downed
   egress interfaces — and compare verdicts, bytes, drop reasons and
   counters at every step. *)

open Scion_dataplane
module Ia = Scion_addr.Ia
module Ipv4 = Scion_addr.Ipv4
module View = Packet.View

let key = Fwkey.of_master_secret "conformance-as-secret"
let cmac = Fwkey.cmac_key key
let ts = 1_700_000_000l
let now_valid = Int32.to_float ts +. 100.0
let local_ia = Ia.of_string "1-10"
let other_ia = Ia.of_string "1-2:0:77"
let max_ifid = 14

let mk_hop ?(exp_time = 255) ~ingress ~egress ~seg_id () =
  let proto =
    { Path.exp_time; cons_ingress = ingress; cons_egress = egress; mac = String.make 6 '\x00' }
  in
  let mac = Path.compute_mac cmac ~seg_id ~timestamp:ts proto in
  { proto with Path.mac }

(* A chained segment, like beaconing builds them: hop [k] (construction
   order) is MAC'd with beta_k, beta_(k+1) = beta_k xor mac_k. [specs] gives
   (ingress, egress) in traversal order. Against construction direction the
   hops are reversed and the info field carries the fully folded beta, as in
   the combinator's up pieces. A peering segment's first construction hop is
   the peer hop, MAC'd with the seg_id it is verified against unfolded. *)
let mk_segment ?(cons_dir = true) ?(peer = false) ~seg_id specs =
  let cons_specs = if cons_dir then specs else List.rev_map (fun (i, e) -> (e, i)) specs in
  let fold (acc, beta) (ingress, egress) =
    let hop = mk_hop ~ingress ~egress ~seg_id:beta () in
    (hop :: acc, Path.chain_seg_id ~seg_id:beta ~mac:hop.Path.mac)
  in
  let rev_hops, beta_end =
    match cons_specs with
    | (ingress, egress) :: rest when peer ->
        List.fold_left fold ([ mk_hop ~ingress ~egress ~seg_id () ], seg_id) rest
    | _ -> List.fold_left fold ([], seg_id) cons_specs
  in
  let hops = if cons_dir then List.rev rev_hops else rev_hops in
  let seg_id = if cons_dir then seg_id else beta_end in
  ({ Path.cons_dir; peer; seg_id; timestamp = ts }, hops)

let ifaces =
  List.init max_ifid (fun i -> { Router.ifid = i + 1; remote_ia = other_ia; remote_ifid = i + 1 })

let mk_router () = Router.create ~ia:local_ia ~key ~ifaces ()
let mk_ref () = Ref_router.create ~ia:local_ia ~key ~ifaces

let mk_packet ~dst_ia path =
  let pkt =
    Packet.make ~proto:Packet.Udp
      ~src:(other_ia, Packet.Ipv4 (Ipv4.of_string "10.1.2.3"))
      ~dst:(dst_ia, Packet.Ipv4 (Ipv4.of_string "10.9.8.7"))
      ~path "conformance payload"
  in
  { pkt with Packet.flow_id = 0x5C10; traffic_class = 7 }

(* Corrupt one MAC byte of hop [i] so both engines must reject it. *)
let corrupt_hop path i =
  let hop = path.Path.hops.(i) in
  let mac = Bytes.of_string hop.Path.mac in
  Bytes.set mac 0 (Char.chr (Char.code (Bytes.get mac 0) lxor 0x5A));
  path.Path.hops.(i) <- { hop with Path.mac = Bytes.to_string mac }

let drop_eq a b = Router.drop_reason_to_string a = Router.drop_reason_to_string b

(* Drive both engines in lockstep on independent routers, with interface
   [down] (if any) administratively down on both. Returns an error
   description on the first divergence, and the number of forwards taken. *)
let lockstep ?down ~now ~mismatch_at pkt =
  let ra = mk_ref () and rb = mk_router () in
  Option.iter
    (fun ifid ->
      Ref_router.set_interface_state ra ifid ~up:false;
      Router.set_interface_state rb ifid ~up:false)
    down;
  let v = View.of_packet pkt in
  let path = match pkt.Packet.path with Packet.Standard p -> Some p | Packet.Empty -> None in
  let rec step ingress forwards =
    if forwards > 32 then Error "loop"
    else begin
      let verdict = Ref_router.process ra ~now ~ingress pkt in
      let code = Router.process_view rb ~now ~ingress v in
      let bytes_agree = String.equal (Packet.encode pkt) (Bytes.to_string (View.buffer v)) in
      if not bytes_agree then Error (Printf.sprintf "wire bytes diverge after step %d" forwards)
      else begin
        match verdict with
        | Ref_router.Deliver p ->
            if code <> 0 then Error (Printf.sprintf "deliver vs code %d" code)
            else if not (String.equal (Packet.encode p) (Packet.encode (View.to_packet v))) then
              Error "delivered packets differ"
            else Ok forwards
        | Ref_router.Drop reason ->
            if code >= 0 then Error (Printf.sprintf "drop vs code %d" code)
            else if not (drop_eq reason (Router.last_drop rb)) then
              Error
                (Printf.sprintf "drop reasons differ: %s vs %s"
                   (Router.drop_reason_to_string reason)
                   (Router.drop_reason_to_string (Router.last_drop rb)))
            else Ok forwards
        | Ref_router.Forward { egress; packet = _ } ->
            if code <> egress then Error (Printf.sprintf "egress %d vs code %d" egress code)
            else begin
              let next_ingress =
                match path with
                | Some p ->
                    let i = Ref_router.traversal_ingress p in
                    if forwards = mismatch_at then i + 1 else i
                | None -> 0
              in
              step next_ingress (forwards + 1)
            end
      end
    end
  in
  match step 0 0 with
  | Ok _ when not (Ref_router.counters_agree ra rb) -> Error "counters diverge"
  | result -> result

(* One segment of a walk: hop count, initial beta, traversal direction and
   peering flag. *)
type seg_spec = { len : int; beta : int; cons_dir : bool; peer : bool }

(* Construction-direction, non-peering segments. *)
let plain_segs lens seg_ids =
  List.map2 (fun len beta -> { len; beta; cons_dir = true; peer = false }) lens seg_ids

let build_segs segs iface_seed =
  let iface = Array.of_list iface_seed in
  let pick = ref 0 in
  let next_ifid () =
    let v = iface.(!pick mod Array.length iface) in
    incr pick;
    v
  in
  let nsegs = List.length segs in
  let segments =
    List.mapi
      (fun si { len; beta; cons_dir; peer } ->
        let specs =
          List.init len (fun i ->
              let ingress = if si = 0 && i = 0 then 0 else next_ifid () in
              let egress = if si = nsegs - 1 && i = len - 1 then 0 else next_ifid () in
              (ingress, egress))
        in
        mk_segment ~cons_dir ~peer ~seg_id:beta specs)
      segs
  in
  Path.create segments

let build_path lens seg_ids iface_seed = build_segs (plain_segs lens seg_ids) iface_seed

(* Random walk scenarios: 1-2 chained segments, each in or against
   construction direction and optionally peering, interface ids in range,
   optional MAC corruption / expiry / ingress mismatch / downed interface,
   delivery or wrong-destination terminal. *)
type walk = {
  segs : seg_spec list;
  iface_seed : int list;
  deliver_here : bool;
  expired : bool;
  corrupt : int;
  mismatch_at : int;
  down : int option;
}

let gen_walk =
  QCheck.Gen.(
    let seg =
      let* len = 2 -- 5 in
      let* beta = 0 -- 0xFFFF in
      let* cons_dir = frequency [ (2, return true); (1, return false) ] in
      let* peer = frequency [ (3, return false); (1, return true) ] in
      return { len; beta; cons_dir; peer }
    in
    let* nsegs = 1 -- 2 in
    let* segs = list_repeat nsegs seg in
    let* iface_seed = list_repeat 24 (1 -- max_ifid) in
    let* deliver_here = bool in
    let* expired = frequency [ (5, return false); (1, return true) ] in
    let* corrupt = frequency [ (3, return (-1)); (1, 0 -- 11) ] in
    let* mismatch_at = frequency [ (5, return (-1)); (1, 0 -- 3) ] in
    let* down = frequency [ (3, return None); (1, map Option.some (1 -- max_ifid)) ] in
    return { segs; iface_seed; deliver_here; expired; corrupt; mismatch_at; down })

let print_walk w =
  Printf.sprintf "segs=[%s] deliver_here=%b expired=%b corrupt=%d mismatch_at=%d down=%s"
    (String.concat ";"
       (List.map
          (fun s -> Printf.sprintf "len=%d,beta=%d,cons_dir=%b,peer=%b" s.len s.beta s.cons_dir s.peer)
          w.segs))
    w.deliver_here w.expired w.corrupt w.mismatch_at
    (match w.down with Some i -> string_of_int i | None -> "none")

let qcheck_lockstep =
  QCheck.Test.make ~name:"process_view is decision- and byte-identical to process" ~count:400
    (QCheck.make ~print:print_walk gen_walk) (fun w ->
      let path = build_segs w.segs w.iface_seed in
      if w.corrupt >= 0 then corrupt_hop path (w.corrupt mod Array.length path.Path.hops);
      let dst_ia = if w.deliver_here then local_ia else other_ia in
      let pkt = mk_packet ~dst_ia (Packet.Standard path) in
      let now = if w.expired then now_valid +. (2.0 *. 86400.0) else now_valid in
      match lockstep ?down:w.down ~now ~mismatch_at:w.mismatch_at pkt with
      | Ok _ -> true
      | Error e -> QCheck.Test.fail_reportf "%s" e)

(* A clean chain must actually traverse every hop: guard against the
   lockstep property passing vacuously on first-hop drops. *)
let qcheck_clean_chain_delivers =
  let gen =
    QCheck.Gen.(
      let* lens = list_repeat 1 (2 -- 5) in
      let* seg_ids = list_repeat 1 (0 -- 0xFFFF) in
      let* iface_seed = list_repeat 24 (1 -- max_ifid) in
      return (lens, seg_ids, iface_seed))
  in
  QCheck.Test.make ~name:"clean single-segment chain forwards hop-by-hop then delivers" ~count:200
    (QCheck.make gen) (fun (lens, seg_ids, iface_seed) ->
      let path = build_path lens seg_ids iface_seed in
      let nhops = Array.length path.Path.hops in
      let pkt = mk_packet ~dst_ia:local_ia (Packet.Standard path) in
      match lockstep ~now:now_valid ~mismatch_at:(-1) pkt with
      | Ok forwards -> forwards = nhops - 1
      | Error e -> QCheck.Test.fail_reportf "%s" e)

(* Every combination of traversal direction and peering flag on a
   two-segment path must verify end to end: a guard against the new walk
   shapes passing the lockstep property vacuously on first-hop drops. *)
let test_reversed_and_peer_chains_deliver () =
  List.iter
    (fun (cons_dir, peer) ->
      let segs =
        [ { len = 3; beta = 0x1234; cons_dir; peer }; { len = 3; beta = 0xBEEF; cons_dir; peer } ]
      in
      let path = build_segs segs (List.init 24 (fun i -> 1 + (i mod max_ifid))) in
      let nhops = Array.length path.Path.hops in
      (* A non-peering boundary is a crossover: one router handles both
         joint hops, so the walk takes one forward fewer. *)
      let expected = if peer then nhops - 1 else nhops - 2 in
      let pkt = mk_packet ~dst_ia:local_ia (Packet.Standard path) in
      match lockstep ~now:now_valid ~mismatch_at:(-1) pkt with
      | Ok forwards ->
          Alcotest.(check int)
            (Printf.sprintf "cons_dir=%b peer=%b forwards" cons_dir peer)
            expected forwards
      | Error e -> Alcotest.failf "cons_dir=%b peer=%b: %s" cons_dir peer e)
    [ (true, false); (false, false); (true, true); (false, true) ];
  (* A downed egress interface drops the walk where it is first used. *)
  let path = build_path [ 3 ] [ 0x4242 ] (List.init 24 (fun i -> 1 + (i mod max_ifid))) in
  let egress = Ref_router.traversal_egress path in
  let pkt = mk_packet ~dst_ia:local_ia (Packet.Standard path) in
  match lockstep ~down:egress ~now:now_valid ~mismatch_at:(-1) pkt with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "expected a first-hop drop, got %d forwards" n
  | Error e -> Alcotest.fail e

(* View parse/re-emit is the identity on every valid encoded packet, and
   the structured round trip through the view preserves bytes exactly. *)
let qcheck_view_roundtrip =
  let gen =
    QCheck.Gen.(
      let* lens = list_repeat 2 (1 -- 4) in
      let* seg_ids = list_repeat 2 (0 -- 0xFFFF) in
      let* iface_seed = list_repeat 24 (1 -- max_ifid) in
      let* empty = frequency [ (4, return false); (1, return true) ] in
      return (lens, seg_ids, iface_seed, empty))
  in
  QCheck.Test.make ~name:"view contents/to_packet are byte-identical to encode/decode" ~count:300
    (QCheck.make gen) (fun (lens, seg_ids, iface_seed, empty) ->
      let path =
        if empty then Packet.Empty else Packet.Standard (build_path lens seg_ids iface_seed)
      in
      let pkt = mk_packet ~dst_ia:other_ia path in
      let wire = Packet.encode pkt in
      let v = View.of_string wire in
      String.equal (Bytes.to_string (View.buffer v)) wire
      && String.equal (Packet.encode (View.to_packet v)) (Packet.encode (Packet.decode wire)))

(* Hop MACs must still verify out of the re-emitted buffer after a
   forwarding step: what the next router reads off the wire is exactly
   what this router's in-place patch produced. *)
let qcheck_mac_verifies_after_forward =
  let gen =
    QCheck.Gen.(
      let* len = 3 -- 5 in
      let* seg_id = 0 -- 0xFFFF in
      let* iface_seed = list_repeat 24 (1 -- max_ifid) in
      return (len, seg_id, iface_seed))
  in
  QCheck.Test.make ~name:"hop MAC verifies from re-emitted wire bytes after forward" ~count:200
    (QCheck.make gen) (fun (len, seg_id, iface_seed) ->
      let path = build_path [ len ] [ seg_id ] iface_seed in
      let pkt = mk_packet ~dst_ia:local_ia (Packet.Standard path) in
      let r = mk_router () in
      let v = View.of_packet pkt in
      let code = Router.process_view r ~now:now_valid ~ingress:0 v in
      if code <= 0 then QCheck.Test.fail_reportf "expected forward, got %d" code
      else begin
        (* Re-parse the patched wire bytes as a fresh packet and verify the
           (now current) next hop against the folded seg_id. *)
        let pkt' = Packet.decode (Bytes.to_string (View.buffer v)) in
        match pkt'.Packet.path with
        | Packet.Empty -> false
        | Packet.Standard p ->
            let info = Ref_router.current_info p in
            let hop = Ref_router.current_hop p in
            Ref_router.verify_mac cmac ~seg_id:info.Path.seg_id ~timestamp:info.Path.timestamp hop
      end)

(* Mutation fuzz for the untrusted ingest edge: start from a valid wire
   encoding, flip random bytes, truncate and/or pad, and require that
   [View.validate] (a) never raises, (b) rejects exactly what
   [Packet.decode]/[View.of_string] reject, and (c) on structurally valid
   mutants yields a view whose one-step verdict is identical to running
   the structured engine on the same bytes — a drop is always a
   structured drop reason, never an exception. *)
let gen_mutation_spec =
  QCheck.Gen.(
    let* lens = list_repeat 2 (1 -- 4) in
    let* seg_ids = list_repeat 2 (0 -- 0xFFFF) in
    let* iface_seed = list_repeat 24 (1 -- max_ifid) in
    let* empty = frequency [ (6, return false); (1, return true) ] in
    let* nmut = 1 -- 8 in
    let* muts = list_repeat nmut (pair (0 -- 9999) (1 -- 255)) in
    let* cut = frequency [ (3, return 0); (1, 1 -- 24) ] in
    let* pad = frequency [ (5, return 0); (1, 1 -- 8) ] in
    return (lens, seg_ids, iface_seed, empty, muts, cut, pad))

let mutate_wire wire muts cut pad =
  let b = Bytes.of_string wire in
  List.iter
    (fun (pos, x) ->
      let i = pos mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x)))
    muts;
  let s = Bytes.to_string b in
  let s = if cut > 0 && cut < String.length s then String.sub s 0 (String.length s - cut) else s in
  if pad > 0 then s ^ String.make pad '\x7F' else s

let print_mutation_spec (lens, seg_ids, _iface_seed, empty, muts, cut, pad) =
  Printf.sprintf "lens=[%s] seg_ids=[%s] empty=%b muts=[%s] cut=%d pad=%d"
    (String.concat ";" (List.map string_of_int lens))
    (String.concat ";" (List.map string_of_int seg_ids))
    empty
    (String.concat ";" (List.map (fun (p, x) -> Printf.sprintf "%d^%02x" p x) muts))
    cut pad

let qcheck_validate_fuzz =
  QCheck.Test.make ~name:"validate is exception-free and verdict-coherent on mutated bytes"
    ~count:600
    (QCheck.make ~print:print_mutation_spec gen_mutation_spec)
    (fun (lens, seg_ids, iface_seed, empty, muts, cut, pad) ->
      let path =
        if empty then Packet.Empty else Packet.Standard (build_path lens seg_ids iface_seed)
      in
      let wire = Packet.encode (mk_packet ~dst_ia:local_ia path) in
      let mutated = mutate_wire wire muts cut pad in
      let outcome = try Ok (View.validate mutated) with e -> Error e in
      match outcome with
      | Error e -> QCheck.Test.fail_reportf "View.validate raised %s" (Printexc.to_string e)
      | Ok (Error _) ->
          (* Structural rejection must mirror the raising entry points. *)
          let decode_rejects =
            try
              ignore (Packet.decode mutated);
              false
            with Packet.Malformed _ -> true
          in
          let view_rejects =
            try
              ignore (View.of_string mutated);
              false
            with Packet.Malformed _ -> true
          in
          if not (decode_rejects && view_rejects) then
            QCheck.Test.fail_reportf "validate rejected bytes that decode/of_string accept"
          else true
      | Ok (Ok v) ->
          if not (String.equal (Bytes.to_string (View.buffer v)) mutated) then
            QCheck.Test.fail_reportf "validated view does not preserve input bytes"
          else begin
            let pkt =
              try Ok (Packet.decode mutated) with e -> Error (Printexc.to_string e)
            in
            match pkt with
            | Error e -> QCheck.Test.fail_reportf "validate accepted what decode rejects: %s" e
            | Ok pkt -> (
                let ra = mk_ref () and rb = mk_router () in
                let verdict =
                  try Ok (Ref_router.process ra ~now:now_valid ~ingress:0 pkt)
                  with e -> Error (Printexc.to_string e)
                in
                let code =
                  try Ok (Router.process_view rb ~now:now_valid ~ingress:0 v)
                  with e -> Error (Printexc.to_string e)
                in
                match (verdict, code) with
                | Error e, _ -> QCheck.Test.fail_reportf "process raised on decoded mutant: %s" e
                | _, Error e ->
                    QCheck.Test.fail_reportf "process_view raised on validated mutant: %s" e
                | Ok verdict, Ok code -> (
                    match verdict with
                    | Ref_router.Deliver _ ->
                        if code = 0 then true
                        else QCheck.Test.fail_reportf "deliver vs code %d" code
                    | Ref_router.Forward { egress; packet } ->
                        if code <> egress then
                          QCheck.Test.fail_reportf "egress %d vs code %d" egress code
                        else if
                          (* Mutants may carry non-canonical but accepted
                             bytes (e.g. the ignored DL/SL nibbles), so
                             compare the re-encoded decodings instead of
                             raw wire bytes. *)
                          not
                            (String.equal (Packet.encode packet)
                               (Packet.encode (Packet.decode (Bytes.to_string (View.buffer v)))))
                        then QCheck.Test.fail_reportf "forwarded packets diverge semantically"
                        else true
                    | Ref_router.Drop reason ->
                        if code >= 0 then
                          QCheck.Test.fail_reportf "drop %s vs code %d"
                            (Router.drop_reason_to_string reason)
                            code
                        else if not (drop_eq reason (Router.last_drop rb)) then
                          QCheck.Test.fail_reportf "drop reasons differ: %s vs %s"
                            (Router.drop_reason_to_string reason)
                            (Router.drop_reason_to_string (Router.last_drop rb))
                        else true))
          end)

let test_empty_path_agreement () =
  let pkt_local = mk_packet ~dst_ia:local_ia Packet.Empty in
  let pkt_foreign = mk_packet ~dst_ia:other_ia Packet.Empty in
  (match lockstep ~now:now_valid ~mismatch_at:(-1) pkt_local with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "unexpected forwards %d" n
  | Error e -> Alcotest.fail e);
  match lockstep ~now:now_valid ~mismatch_at:(-1) pkt_foreign with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "unexpected forwards %d" n
  | Error e -> Alcotest.fail e

let test_view_rejects_garbage () =
  let raises s = try ignore (View.of_string s); false with Packet.Malformed _ -> true in
  Alcotest.(check bool) "empty" true (raises "");
  Alcotest.(check bool) "short" true (raises "tiny");
  Alcotest.(check bool) "random" true (raises (String.make 64 '\x42'));
  let valid = Packet.encode (mk_packet ~dst_ia:local_ia Packet.Empty) in
  Alcotest.(check bool) "truncated valid" true (raises (String.sub valid 0 (String.length valid - 1)));
  Alcotest.(check bool) "padded valid" true (raises (valid ^ "\x00"))

(* Fixed-seed qcheck state so failures reproduce on every run. *)
let det_rand () = Random.State.make [| 0x5C1E7A60 |]
let to_alcotest_seeded t = QCheck_alcotest.to_alcotest ~rand:(det_rand ()) t

let () =
  Alcotest.run "dataplane_conformance"
    [
      ( "fast-path",
        [
          to_alcotest_seeded qcheck_lockstep;
          to_alcotest_seeded qcheck_clean_chain_delivers;
          to_alcotest_seeded qcheck_view_roundtrip;
          to_alcotest_seeded qcheck_mac_verifies_after_forward;
          to_alcotest_seeded qcheck_validate_fuzz;
          Alcotest.test_case "empty path agreement" `Quick test_empty_path_agreement;
          Alcotest.test_case "reversed and peering chains deliver" `Quick
            test_reversed_and_peer_chains_deliver;
          Alcotest.test_case "view rejects garbage" `Quick test_view_rejects_garbage;
        ] );
    ]
