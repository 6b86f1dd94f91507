open Scion_dataplane
module Ia = Scion_addr.Ia
module Ipv4 = Scion_addr.Ipv4

let key = Fwkey.of_master_secret "test-as-secret"
let cmac = Fwkey.cmac_key key
let ts = 1_700_000_000l

let mk_hop ?(exp_time = 255) ~ingress ~egress ~seg_id () =
  let proto = { Path.exp_time; cons_ingress = ingress; cons_egress = egress; mac = String.make 6 '\x00' } in
  let mac = Path.compute_mac cmac ~seg_id ~timestamp:ts proto in
  { proto with Path.mac }

(* A chained construction-direction segment: each hop MAC'd with the folded
   beta, like beaconing does. *)
let mk_segment ?(cons_dir = true) ?(peer = false) ~seg_id specs =
  let hops, _ =
    List.fold_left
      (fun (acc, beta) (ingress, egress) ->
        let hop = mk_hop ~ingress ~egress ~seg_id:beta () in
        (hop :: acc, Path.chain_seg_id ~seg_id:beta ~mac:hop.Path.mac))
      ([], seg_id) specs
  in
  let hops = List.rev hops in
  let info = { Path.cons_dir; peer; seg_id; timestamp = ts } in
  (info, hops)

let test_path_roundtrip () =
  let info, hops = mk_segment ~seg_id:0x1234 [ (0, 5); (7, 9); (2, 0) ] in
  let p = Path.create [ (info, hops) ] in
  let p' = Path.decode (Path.encode p) in
  Alcotest.(check int) "curr_inf" p.Path.curr_inf p'.Path.curr_inf;
  Alcotest.(check int) "hops" (Array.length p.Path.hops) (Array.length p'.Path.hops);
  Alcotest.(check string) "re-encode equal" (Path.encode p) (Path.encode p');
  Alcotest.(check int) "encoded length" (4 + 8 + (3 * 12)) (String.length (Path.encode p))

let test_path_multi_segment_roundtrip () =
  let s1 = mk_segment ~cons_dir:false ~seg_id:1 [ (0, 1); (2, 0) ] in
  let s2 = mk_segment ~seg_id:2 [ (0, 3); (4, 5); (6, 0) ] in
  let s3 = mk_segment ~seg_id:3 [ (0, 7); (8, 0) ] in
  let p = Path.create [ s1; s2; s3 ] in
  Ref_router.advance p;
  Ref_router.advance p;
  let p' = Path.decode (Path.encode p) in
  Alcotest.(check int) "curr_hf preserved" 2 p'.Path.curr_hf;
  Alcotest.(check int) "curr_inf preserved" 1 p'.Path.curr_inf;
  Alcotest.(check (array int)) "seg lens" [| 2; 3; 2 |] p'.Path.lens

let test_path_create_invalid () =
  let seg = mk_segment ~seg_id:1 [ (0, 1) ] in
  let raises f = try ignore (f ()); false with Path.Malformed _ -> true in
  Alcotest.(check bool) "no segments" true (raises (fun () -> Path.create []));
  Alcotest.(check bool) "four segments" true (raises (fun () -> Path.create [ seg; seg; seg; seg ]));
  let info, _ = seg in
  Alcotest.(check bool) "empty segment" true (raises (fun () -> Path.create [ (info, []) ]))

let test_path_decode_garbage () =
  let raises s = try ignore (Path.decode s); false with Path.Malformed _ -> true in
  Alcotest.(check bool) "empty" true (raises "");
  Alcotest.(check bool) "short" true (raises "\x00\x01");
  Alcotest.(check bool) "zero seg0" true (raises (String.make 40 '\x00'))

let test_advance_and_bounds () =
  let s1 = mk_segment ~seg_id:1 [ (0, 1); (2, 0) ] in
  let s2 = mk_segment ~seg_id:2 [ (0, 3); (4, 0) ] in
  let p = Path.create [ s1; s2 ] in
  Alcotest.(check bool) "seg first" true (Ref_router.curr_is_seg_first p);
  Alcotest.(check bool) "not seg last" false (Ref_router.curr_is_seg_last p);
  Ref_router.advance p;
  Alcotest.(check bool) "seg last" true (Ref_router.curr_is_seg_last p);
  Ref_router.advance p;
  Alcotest.(check int) "crossed into segment 1" 1 p.Path.curr_inf;
  Alcotest.(check bool) "first of second" true (Ref_router.curr_is_seg_first p);
  Ref_router.advance p;
  Alcotest.(check bool) "at last hop" true (Ref_router.at_last_hop p);
  Alcotest.check_raises "advance past end" (Path.Malformed "advance past last hop") (fun () ->
      Ref_router.advance p)

let test_hop_expiry () =
  let info = { Path.cons_dir = true; peer = false; seg_id = 0; timestamp = ts } in
  let hop = mk_hop ~ingress:0 ~egress:1 ~seg_id:0 () in
  let expiry = Path.hop_expiry info hop in
  Alcotest.(check (float 1.0)) "max exp_time = 24h" (Int32.to_float ts +. 86400.0) expiry;
  let short_hop = { hop with Path.exp_time = 0 } in
  Alcotest.(check (float 1.0)) "min exp_time = 337.5s"
    (Int32.to_float ts +. 337.5)
    (Path.hop_expiry info short_hop)

let test_mac_chain () =
  let beta0 = 0xBEEF in
  let h0 = mk_hop ~ingress:0 ~egress:1 ~seg_id:beta0 () in
  let beta1 = Path.chain_seg_id ~seg_id:beta0 ~mac:h0.Path.mac in
  Alcotest.(check bool) "beta changes" true (beta0 <> beta1);
  Alcotest.(check int) "chain is xor involution" beta0 (Path.chain_seg_id ~seg_id:beta1 ~mac:h0.Path.mac);
  let recomputed = Path.compute_mac cmac ~seg_id:beta0 ~timestamp:ts h0 in
  Alcotest.(check string) "deterministic" h0.Path.mac recomputed;
  let other = Path.compute_mac cmac ~seg_id:beta1 ~timestamp:ts h0 in
  Alcotest.(check bool) "beta affects mac" true (other <> h0.Path.mac)

let test_reverse () =
  let s1 = mk_segment ~cons_dir:false ~seg_id:1 [ (0, 1); (2, 3) ] in
  let s2 = mk_segment ~cons_dir:true ~seg_id:2 [ (0, 4); (5, 0) ] in
  let p = Path.create [ s1; s2 ] in
  let r = Path.reverse p in
  Alcotest.(check int) "same hops" (Array.length p.Path.hops) (Array.length r.Path.hops);
  Alcotest.(check (array int)) "lens reversed" [| 2; 2 |] r.Path.lens;
  (* The reversed path starts with the old last segment (C=1), flipped. *)
  Alcotest.(check bool) "first info flipped" false (Ref_router.current_info r).Path.cons_dir;
  Alcotest.(check int) "positioned at start" 0 r.Path.curr_hf;
  let rr = Path.reverse r in
  Alcotest.(check string) "double reverse" (Path.encode p) (Path.encode rr)

(* --- Packet --- *)

let ia = Ia.of_string

let sample_packet () =
  let info, hops = mk_segment ~seg_id:9 [ (0, 1); (2, 0) ] in
  let pkt =
    Packet.make ~proto:Packet.Udp
      ~src:(ia "71-559", Packet.Ipv4 (Ipv4.of_string "192.168.1.7"))
      ~dst:(ia "71-2:0:3b", Packet.Service 2)
      ~path:(Packet.Standard (Path.create [ (info, hops) ]))
      "hello scion"
  in
  { pkt with Packet.flow_id = 0xABCDE; traffic_class = 3 }

let test_packet_roundtrip () =
  let pkt = sample_packet () in
  let pkt' = Packet.decode (Packet.encode pkt) in
  Alcotest.(check string) "payload" pkt.Packet.payload pkt'.Packet.payload;
  Alcotest.(check int) "flow id" pkt.Packet.flow_id pkt'.Packet.flow_id;
  Alcotest.(check int) "traffic class" pkt.Packet.traffic_class pkt'.Packet.traffic_class;
  Alcotest.(check bool) "dst ia" true (Ia.equal pkt.Packet.dst_ia pkt'.Packet.dst_ia);
  Alcotest.(check bool) "src host" true (pkt.Packet.src_host = pkt'.Packet.src_host);
  Alcotest.(check bool) "dst host svc" true
    (pkt'.Packet.dst_host = Packet.Service 2);
  Alcotest.(check string) "stable encoding" (Packet.encode pkt) (Packet.encode pkt')

let test_packet_empty_path () =
  let pkt =
    Packet.make ~proto:Packet.Scmp
      ~src:(ia "71-88", Packet.Ipv4 (Ipv4.of_string "10.0.0.1"))
      ~dst:(ia "71-88", Packet.Ipv4 (Ipv4.of_string "10.0.0.2"))
      ~path:Packet.Empty "x"
  in
  let pkt' = Packet.decode (Packet.encode pkt) in
  Alcotest.(check bool) "empty path" true (pkt'.Packet.path = Packet.Empty)

let test_packet_garbage () =
  let raises s = try ignore (Packet.decode s); false with Packet.Malformed _ -> true in
  Alcotest.(check bool) "empty" true (raises "");
  Alcotest.(check bool) "random" true (raises "this is not a scion packet at all")

let test_scmp_roundtrip () =
  (* An encoded echo request decodes back to its id, seq and data: the
     responder answers with exactly the matching reply. Every other
     message decodes as something that is not a request. *)
  let echo = Scmp.encode (Scmp.Echo_request { id = 7; seq = 42; data = "probe" }) in
  Alcotest.(check (option string)) "echo request answered"
    (Some (Scmp.encode (Scmp.Echo_reply { id = 7; seq = 42; data = "probe" })))
    (Scmp.echo_reply_for echo);
  List.iter
    (fun m -> Alcotest.(check (option string)) "not a request" None (Scmp.echo_reply_for (Scmp.encode m)))
    [
      Scmp.Echo_reply { id = 7; seq = 42; data = "probe" };
      Scmp.Destination_unreachable;
      Scmp.External_interface_down { ia = ia "71-2:0:3b"; ifid = 5 };
      Scmp.Expired_hop_field;
      Scmp.Invalid_hop_field_mac;
    ]

let test_scmp_garbage () =
  let echo = Scmp.encode (Scmp.Echo_request { id = 7; seq = 42; data = "" }) in
  Alcotest.(check (option string)) "empty ignored" None (Scmp.echo_reply_for "");
  Alcotest.(check (option string)) "truncated request ignored" None
    (Scmp.echo_reply_for (String.sub echo 0 5));
  Alcotest.(check (option string)) "unknown type ignored" None
    (Scmp.echo_reply_for "\xFF\xFF\x00\x00")

(* --- Router: single-AS behaviours (multi-AS flows are in the mesh tests) --- *)

let local_ia = ia "1-10"
let neighbor_ia = ia "1-2:0:1"

let mk_router () =
  Router.create ~ia:local_ia ~key
    ~ifaces:[ { Router.ifid = 1; remote_ia = neighbor_ia; remote_ifid = 7 } ]
    ()

let test_router_empty_path_delivery () =
  let r = mk_router () in
  let pkt =
    Packet.make ~proto:Packet.Udp
      ~src:(local_ia, Packet.Ipv4 (Ipv4.of_string "10.0.0.1"))
      ~dst:(local_ia, Packet.Ipv4 (Ipv4.of_string "10.0.0.2"))
      ~path:Packet.Empty "intra"
  in
  let oracle =
    Ref_router.create ~ia:local_ia ~key
      ~ifaces:[ { Router.ifid = 1; remote_ia = neighbor_ia; remote_ifid = 7 } ]
  in
  (* The reference engine and the wire-view router must agree. *)
  (match Ref_router.process oracle ~now:0.0 ~ingress:0 pkt with
  | Ref_router.Deliver _ -> ()
  | _ -> Alcotest.fail "expected delivery");
  Alcotest.(check int) "view delivers" 0
    (Router.process_view r ~now:0.0 ~ingress:0 (Packet.View.of_packet pkt));
  let foreign = { pkt with Packet.dst_ia = neighbor_ia } in
  (match Ref_router.process oracle ~now:0.0 ~ingress:0 foreign with
  | Ref_router.Drop Router.Not_for_us -> ()
  | _ -> Alcotest.fail "expected Not_for_us");
  Alcotest.(check bool) "view drops" true
    (Router.process_view r ~now:0.0 ~ingress:0 (Packet.View.of_packet foreign) < 0);
  (match Router.last_drop r with
  | Router.Not_for_us -> ()
  | _ -> Alcotest.fail "view: expected Not_for_us");
  Alcotest.(check bool) "counters agree" true (Ref_router.counters_agree oracle r)

let test_router_duplicate_iface () =
  let iface = { Router.ifid = 1; remote_ia = neighbor_ia; remote_ifid = 7 } in
  (try
     ignore (Router.create ~ia:local_ia ~key ~ifaces:[ iface; iface ] ());
     Alcotest.fail "accepted duplicate"
   with Invalid_argument _ -> ());
  try
    ignore
      (Router.create ~ia:local_ia ~key
         ~ifaces:[ { Router.ifid = 0; remote_ia = neighbor_ia; remote_ifid = 7 } ]
         ());
    Alcotest.fail "accepted ifid 0"
  with Invalid_argument _ -> ()

let test_router_iface_state () =
  let r = mk_router () in
  Alcotest.(check bool) "default up" true (Router.interface_up r 1);
  Router.set_interface_state r 1 ~up:false;
  Alcotest.(check bool) "down" false (Router.interface_up r 1);
  Router.set_interface_state r 1 ~up:true;
  Alcotest.(check bool) "up again" true (Router.interface_up r 1)

let qcheck_path_roundtrip =
  let gen =
    QCheck.Gen.(
      let* nsegs = 1 -- 3 in
      let* lens = list_repeat nsegs (1 -- 6) in
      let* seg_ids = list_repeat nsegs (0 -- 0xFFFF) in
      let* dirs = list_repeat nsegs bool in
      return (List.combine (List.combine lens seg_ids) dirs))
  in
  QCheck.Test.make ~name:"path encode/decode roundtrip" ~count:200 (QCheck.make gen) (fun spec ->
      let segments =
        List.map
          (fun ((len, seg_id), dir) ->
            mk_segment ~cons_dir:dir ~seg_id (List.init len (fun i -> (i, i + 1))))
          spec
      in
      let p = Path.create segments in
      Path.encode (Path.decode (Path.encode p)) = Path.encode p)

(* Property tests draw from a fixed-seed state (instead of qcheck's
   self-initialising global one) so a failure reproduces on every run. *)
let det_rand () = Random.State.make [| 0x5C1E7A5E |]
let to_alcotest_seeded t = QCheck_alcotest.to_alcotest ~rand:(det_rand ()) t

let gen_packet_spec =
  QCheck.Gen.(
    let* proto = oneofl [ Packet.Udp; Packet.Scmp; Packet.Bfd ] in
    let* flow_id = 0 -- 0xFFFFF in
    let* traffic_class = 0 -- 0xFF in
    let* src = pair (1 -- 0xFFF) (1 -- 0xFFFFFF) in
    let* dst = pair (1 -- 0xFFF) (1 -- 0xFFFFFF) in
    let* src_octet = 1 -- 254 in
    let* dst_service = oneofl [ None; Some 2; Some 1 ] in
    let* payload = string_size ~gen:printable (0 -- 64) in
    let* nhops = 2 -- 6 in
    let* seg_id = 0 -- 0xFFFF in
    return (proto, flow_id, traffic_class, src, dst, src_octet, dst_service, payload, nhops, seg_id))

let qcheck_packet_roundtrip =
  QCheck.Test.make ~name:"packet encode/decode roundtrip" ~count:300 (QCheck.make gen_packet_spec)
    (fun (proto, flow_id, traffic_class, (si, sa), (di, da), src_octet, dst_service, payload, nhops, seg_id)
    ->
      let info, hops = mk_segment ~seg_id (List.init nhops (fun i -> (i, i + 1))) in
      let src_host = Packet.Ipv4 (Ipv4.of_string (Printf.sprintf "10.0.0.%d" src_octet)) in
      let dst_host =
        match dst_service with
        | Some svc -> Packet.Service svc
        | None -> Packet.Ipv4 (Ipv4.of_string "192.168.7.9")
      in
      let pkt =
        {
          (Packet.make ~proto
             ~src:(Ia.make si sa, src_host)
             ~dst:(Ia.make di da, dst_host)
             ~path:(Packet.Standard (Path.create [ (info, hops) ]))
             payload)
          with
          Packet.flow_id;
          traffic_class;
        }
      in
      let pkt' = Packet.decode (Packet.encode pkt) in
      String.equal (Packet.encode pkt) (Packet.encode pkt')
      && String.equal pkt'.Packet.payload payload
      && pkt'.Packet.flow_id = flow_id
      && pkt'.Packet.traffic_class = traffic_class
      && Ia.equal pkt'.Packet.src_ia (Ia.make si sa)
      && Ia.equal pkt'.Packet.dst_ia (Ia.make di da)
      && pkt'.Packet.src_host = src_host
      && pkt'.Packet.dst_host = dst_host)

let gen_hop_spec =
  QCheck.Gen.(
    let* exp_time = 0 -- 255 in
    let* ingress = 0 -- 0xFFFF in
    let* egress = 0 -- 0xFFFF in
    let* seg_id = 0 -- 0xFFFF in
    return (exp_time, ingress, egress, seg_id))

(* Every field the hop MAC covers must survive the wire format: after an
   encode/decode trip, recomputing the MAC from the decoded hop and info
   fields must reproduce the decoded MAC bytes exactly. *)
let qcheck_hop_mac_after_encode =
  QCheck.Test.make ~name:"hop-field MAC verifies after encode/decode" ~count:300
    (QCheck.make gen_hop_spec) (fun (exp_time, ingress, egress, seg_id) ->
      let hop = mk_hop ~exp_time ~ingress ~egress ~seg_id () in
      let next =
        mk_hop ~ingress:1 ~egress:0 ~seg_id:(Path.chain_seg_id ~seg_id ~mac:hop.Path.mac) ()
      in
      let info = { Path.cons_dir = true; peer = false; seg_id; timestamp = ts } in
      let p' = Path.decode (Path.encode (Path.create [ (info, [ hop; next ]) ])) in
      let info' = Ref_router.current_info p' in
      let hop' = Ref_router.current_hop p' in
      String.equal hop'.Path.mac
        (Path.compute_mac cmac ~seg_id:info'.Path.seg_id ~timestamp:info'.Path.timestamp hop'))

let () =
  Alcotest.run "scion_dataplane"
    [
      ( "path",
        [
          Alcotest.test_case "roundtrip" `Quick test_path_roundtrip;
          Alcotest.test_case "multi-segment roundtrip" `Quick test_path_multi_segment_roundtrip;
          Alcotest.test_case "create invalid" `Quick test_path_create_invalid;
          Alcotest.test_case "decode garbage" `Quick test_path_decode_garbage;
          Alcotest.test_case "advance and bounds" `Quick test_advance_and_bounds;
          Alcotest.test_case "hop expiry" `Quick test_hop_expiry;
          Alcotest.test_case "mac chain" `Quick test_mac_chain;
          Alcotest.test_case "reverse" `Quick test_reverse;
          to_alcotest_seeded qcheck_path_roundtrip;
          to_alcotest_seeded qcheck_hop_mac_after_encode;
        ] );
      ( "packet",
        [
          Alcotest.test_case "roundtrip" `Quick test_packet_roundtrip;
          Alcotest.test_case "empty path" `Quick test_packet_empty_path;
          Alcotest.test_case "garbage" `Quick test_packet_garbage;
          to_alcotest_seeded qcheck_packet_roundtrip;
        ] );
      ( "scmp",
        [
          Alcotest.test_case "roundtrip" `Quick test_scmp_roundtrip;
          Alcotest.test_case "garbage" `Quick test_scmp_garbage;
        ] );
      ( "router",
        [
          Alcotest.test_case "empty path delivery" `Quick test_router_empty_path_delivery;
          Alcotest.test_case "duplicate iface" `Quick test_router_duplicate_iface;
          Alcotest.test_case "iface state" `Quick test_router_iface_state;
        ] );
    ]
