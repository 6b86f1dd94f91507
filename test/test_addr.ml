open Scion_addr

let test_ia_parse_print () =
  let cases = [ "71-2:0:3b"; "64-559"; "71-88"; "71-2:0:5c"; "1-4294967295"; "2-ffff:ffff:ffff" ] in
  List.iter (fun s -> Alcotest.(check string) s s (Ia.to_string (Ia.of_string s))) cases

let test_ia_bgp_vs_hex_boundary () =
  (* Values below 2^32 print as decimal; above as hex groups. *)
  Alcotest.(check string) "decimal" "1-4294967295" (Ia.to_string (Ia.make 1 0xFFFFFFFF));
  Alcotest.(check string) "hex" "1-1:0:0" (Ia.to_string (Ia.make 1 (1 lsl 32)))

let test_ia_invalid () =
  let rejects s = try ignore (Ia.of_string s); false with Invalid_argument _ -> true in
  List.iter
    (fun s -> Alcotest.(check bool) s true (rejects s))
    [ ""; "71"; "-"; "71-"; "x-1"; "71-1:2"; "71-1:2:3:4"; "70000-1"; "71-fffff:0:0"; "71-x" ]

let test_ia_wire_roundtrip () =
  let w = Scion_util.Rw.Writer.create () in
  let ia = Ia.of_string "71-2:0:3b" in
  Ia.encode w ia;
  Alcotest.(check int) "8 bytes" 8 (String.length (Scion_util.Rw.Writer.contents w));
  let ia' = Ia.decode (Scion_util.Rw.Reader.of_string (Scion_util.Rw.Writer.contents w)) in
  Alcotest.(check bool) "equal" true (Ia.equal ia ia')

let test_ia_ordering () =
  let a = Ia.of_string "64-559" and b = Ia.of_string "71-1" in
  Alcotest.(check bool) "isd dominates" true (Ia.compare a b < 0)

let qcheck_ia_roundtrip =
  QCheck.Test.make ~name:"ia string roundtrip" ~count:500
    QCheck.(pair (int_bound 0xFFFF) (int_bound ((1 lsl 48) - 1)))
    (fun (isd, asn) ->
      let ia = Ia.make isd asn in
      Ia.equal ia (Ia.of_string (Ia.to_string ia)))

let qcheck_ia_wire_roundtrip =
  QCheck.Test.make ~name:"ia wire roundtrip" ~count:500
    QCheck.(pair (int_bound 0xFFFF) (int_bound ((1 lsl 48) - 1)))
    (fun (isd, asn) ->
      let ia = Ia.make isd asn in
      let w = Scion_util.Rw.Writer.create () in
      Ia.encode w ia;
      Ia.equal ia (Ia.decode (Scion_util.Rw.Reader.of_string (Scion_util.Rw.Writer.contents w))))

let test_ipv4 () =
  Alcotest.(check string) "roundtrip" "192.168.1.254" (Ipv4.to_string (Ipv4.of_string "192.168.1.254"));
  Alcotest.(check string) "zeros" "0.0.0.0" (Ipv4.to_string (Ipv4.of_string "0.0.0.0"));
  Alcotest.(check string) "broadcast" "255.255.255.255"
    (Ipv4.to_string (Ipv4.of_string "255.255.255.255"));
  let rejects s = try ignore (Ipv4.of_string s); false with Invalid_argument _ -> true in
  List.iter
    (fun s -> Alcotest.(check bool) s true (rejects s))
    [ ""; "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "a.b.c.d"; "-1.0.0.0" ]

let test_endpoint () =
  let e = Ipv4.endpoint_of_string "10.0.0.1:30041" in
  Alcotest.(check string) "roundtrip" "10.0.0.1:30041" (Ipv4.endpoint_to_string e);
  let rejects s = try ignore (Ipv4.endpoint_of_string s); false with Invalid_argument _ -> true in
  List.iter
    (fun s -> Alcotest.(check bool) s true (rejects s))
    [ "10.0.0.1"; "10.0.0.1:x"; "10.0.0.1:70000"; ":80" ]

(* --- hop predicates --- *)

let hop ia_s ingress egress = { Hop_pred.ia = Ia.of_string ia_s; ingress; egress }

let seq s = match Hop_pred.parse_sequence s with Ok q -> q | Error e -> Alcotest.fail e

(* A one-predicate sequence matches a one-hop path exactly when the
   predicate matches the hop. *)
let matches s h = Hop_pred.sequence_matches (seq s) [ h ]

let test_hop_pred_parse_print () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Hop_pred.sequence_to_string (seq s)))
    [ "0-0"; "71-0"; "71-2:0:3b#1"; "71-559#1,2"; "0-0#0,5" ];
  (match Hop_pred.parse_sequence "71-x" with Ok _ -> Alcotest.fail "accepted" | Error _ -> ());
  match Hop_pred.parse_sequence "71-1#a" with Ok _ -> Alcotest.fail "accepted" | Error _ -> ()

let test_hop_pred_matching () =
  let h = hop "71-2:0:3b" 1 2 in
  Alcotest.(check bool) "any" true (matches "0-0#0" h);
  Alcotest.(check bool) "exact ia" true (matches "71-2:0:3b" h);
  Alcotest.(check bool) "wrong ia" false (matches "71-559" h);
  Alcotest.(check bool) "isd only" true (matches "71-0" h);
  Alcotest.(check bool) "wrong isd" false (matches "64-0" h);
  Alcotest.(check bool) "if pair" true (matches "71-2:0:3b#1,2" h);
  Alcotest.(check bool) "if pair wrong order" false (matches "71-2:0:3b#2,1" h);
  Alcotest.(check bool) "single if matches either" true (matches "71-2:0:3b#2" h);
  Alcotest.(check bool) "single if no match" false (matches "71-2:0:3b#9" h);
  Alcotest.(check bool) "zero wildcard in pair" true (matches "71-2:0:3b#0,2" h)

let test_sequence_matching () =
  let hops = [ hop "71-13" 0 1; hop "71-10" 2 3; hop "71-2:0:1" 4 0 ] in
  Alcotest.(check bool) "empty matches" true (Hop_pred.sequence_matches (seq "") hops);
  Alcotest.(check bool) "star matches" true (Hop_pred.sequence_matches (seq "*") hops);
  Alcotest.(check bool) "exact" true
    (Hop_pred.sequence_matches (seq "71-13 71-10 71-2:0:1") hops);
  Alcotest.(check bool) "prefix star" true (Hop_pred.sequence_matches (seq "71-13 *") hops);
  Alcotest.(check bool) "infix star" true
    (Hop_pred.sequence_matches (seq "71-13 * 71-2:0:1") hops);
  Alcotest.(check bool) "wrong order" false
    (Hop_pred.sequence_matches (seq "71-10 * 71-13") hops);
  Alcotest.(check bool) "too many" false
    (Hop_pred.sequence_matches (seq "71-13 71-10 71-2:0:1 71-99") hops);
  Alcotest.(check bool) "middle only fails without stars" false
    (Hop_pred.sequence_matches (seq "71-10") hops);
  Alcotest.(check bool) "star middle star" true
    (Hop_pred.sequence_matches (seq "* 71-10 *") hops)

let test_sequence_print () =
  Alcotest.(check string) "roundtrip" "71-13 * 71-2:0:1"
    (Hop_pred.sequence_to_string (seq "71-13   *  71-2:0:1"))

let test_deny_transit () =
  let commercial = Ia.Set.of_list [ Ia.of_string "64-559" ] in
  let transit = [ hop "71-13" 0 1; hop "64-559" 2 3; hop "71-10" 4 0 ] in
  let terminate = [ hop "71-13" 0 1; hop "71-10" 2 3; hop "64-559" 4 0 ] in
  let avoid = [ hop "71-13" 0 1; hop "71-10" 2 0 ] in
  Alcotest.(check bool) "transit denied" false
    (Hop_pred.deny_transit ~through:commercial ~endpoints_ok:true transit);
  Alcotest.(check bool) "termination allowed" true
    (Hop_pred.deny_transit ~through:commercial ~endpoints_ok:true terminate);
  Alcotest.(check bool) "termination denied when endpoints_ok=false" false
    (Hop_pred.deny_transit ~through:commercial ~endpoints_ok:false terminate);
  Alcotest.(check bool) "uninvolved path fine" true
    (Hop_pred.deny_transit ~through:commercial ~endpoints_ok:false avoid)

let qcheck_sequence_self_match =
  (* A path always matches the exact sequence spelled from its own hops. *)
  let gen =
    QCheck.Gen.(
      let* n = 1 -- 6 in
      list_repeat n
        (let* isd = 1 -- 3 in
         let* asn = 1 -- 500 in
         let* ing = 0 -- 9 in
         let* egr = 0 -- 9 in
         return (isd, asn, ing, egr)))
  in
  QCheck.Test.make ~name:"sequence matches its own path" ~count:200 (QCheck.make gen)
    (fun spec ->
      let hops =
        List.map (fun (isd, asn, ing, egr) -> { Hop_pred.ia = Ia.make isd asn; ingress = ing; egress = egr }) spec
      in
      let exact =
        String.concat " " (List.map (fun h -> Ia.to_string h.Hop_pred.ia) hops)
      in
      match Hop_pred.parse_sequence exact with
      | Ok s ->
          Hop_pred.sequence_matches s hops
          && Hop_pred.sequence_matches (Result.get_ok (Hop_pred.parse_sequence "*")) hops
      | Error _ -> false)

let qcheck_pred_roundtrip =
  let gen =
    QCheck.Gen.(
      let* isd = 0 -- 99 in
      let* asn = 0 -- 10_000 in
      let* ifs = 0 -- 2 in
      let* i1 = 0 -- 50 in
      let* i2 = 0 -- 50 in
      return (isd, asn, ifs, i1, i2))
  in
  QCheck.Test.make ~name:"hop predicate parse/print roundtrip" ~count:300 (QCheck.make gen)
    (fun (isd, asn, ifs, i1, i2) ->
      let s =
        let base = Ia.to_string (Ia.make isd asn) in
        match ifs with
        | 0 -> base
        | 1 -> Printf.sprintf "%s#%d" base i1
        | _ -> Printf.sprintf "%s#%d,%d" base i1 i2
      in
      match Hop_pred.parse_sequence s with
      | Ok p -> (
          let printed = Hop_pred.sequence_to_string p in
          match Hop_pred.parse_sequence printed with
          | Ok p2 -> Hop_pred.sequence_to_string p2 = printed
          | Error _ -> false)
      | Error _ -> false)

let () =
  Alcotest.run "scion_addr"
    [
      ( "ia",
        [
          Alcotest.test_case "parse/print" `Quick test_ia_parse_print;
          Alcotest.test_case "bgp/hex boundary" `Quick test_ia_bgp_vs_hex_boundary;
          Alcotest.test_case "invalid" `Quick test_ia_invalid;
          Alcotest.test_case "wire roundtrip" `Quick test_ia_wire_roundtrip;
          Alcotest.test_case "ordering" `Quick test_ia_ordering;
          QCheck_alcotest.to_alcotest qcheck_ia_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_ia_wire_roundtrip;
        ] );
      ( "ipv4",
        [
          Alcotest.test_case "parse/print" `Quick test_ipv4;
          Alcotest.test_case "endpoint" `Quick test_endpoint;
        ] );
      ( "hop_pred",
        [
          Alcotest.test_case "parse/print" `Quick test_hop_pred_parse_print;
          Alcotest.test_case "matching" `Quick test_hop_pred_matching;
          Alcotest.test_case "sequences" `Quick test_sequence_matching;
          Alcotest.test_case "sequence print" `Quick test_sequence_print;
          Alcotest.test_case "deny transit" `Quick test_deny_transit;
          QCheck_alcotest.to_alcotest qcheck_sequence_self_match;
          QCheck_alcotest.to_alcotest qcheck_pred_roundtrip;
        ] );
    ]
