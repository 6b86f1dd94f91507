(* Tests for lib/telemetry: quantile agreement with Scion_util.Stats,
   deterministic snapshots of seeded simulations, and JSON round-trips. *)

module M = Telemetry.Metrics
module Export = Telemetry.Export
module Json = Telemetry.Json
module Trace = Telemetry.Trace
module Stats = Scion_util.Stats

(* One series read back through a registry snapshot. *)
let find reg name =
  List.find_map
    (fun (smp : M.sample) -> if String.equal smp.M.sample_name name then Some smp.M.value else None)
    (M.snapshot reg)

let seeded_samples ~n ~bound =
  let rng = Scion_util.Rng.of_label 0x7E1EL "telemetry-test" in
  Array.init n (fun _ -> Scion_util.Rng.float rng bound)

(* --- quantiles ---------------------------------------------------------- *)

let test_summary_matches_stats () =
  let data = seeded_samples ~n:500 ~bound:100.0 in
  let reg = M.create () in
  let s = M.summary reg "rtt_ms" in
  Array.iter (M.record s) data;
  match find reg "rtt_ms" with
  | Some (M.Summary { count; quantiles; _ }) ->
      Alcotest.(check int) "count" 500 count;
      Alcotest.(check (list (float 0.0))) "exported percentiles" [ 50.0; 90.0; 99.0 ]
        (Array.to_list (Array.map fst quantiles));
      Array.iter
        (fun (p, v) ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "exported p%.0f" p)
            (Stats.percentile data p) v)
        quantiles
  | _ -> Alcotest.fail "summary series missing from registry"

let test_histogram_brackets_stats () =
  let data = seeded_samples ~n:500 ~bound:1.0 in
  let n = Array.length data in
  let reg = M.create () in
  let upper_bounds = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ] in
  let h = M.histogram reg ~buckets:upper_bounds "wait_s" in
  Array.iter (M.observe h) data;
  match find reg "wait_s" with
  | Some (M.Histogram { upper; counts; overflow; count; sum }) ->
      Alcotest.(check int) "count" n count;
      Alcotest.(check (float 1e-9)) "sum" (Array.fold_left ( +. ) 0.0 data) sum;
      (* Each bucket holds exactly the samples in (prev_upper, upper]. *)
      Array.iteri
        (fun i u ->
          let lo = if i = 0 then neg_infinity else upper.(i - 1) in
          let expected =
            Array.fold_left (fun acc x -> if x > lo && x <= u then acc + 1 else acc) 0 data
          in
          Alcotest.(check int) (Printf.sprintf "bucket <= %g" u) expected counts.(i))
        upper;
      Alcotest.(check int) "overflow"
        (Array.fold_left
           (fun acc x -> if x > upper.(Array.length upper - 1) then acc + 1 else acc)
           0 data)
        overflow;
      (* Stats.percentile lands inside (or one bucket above, from rank
         interpolation) the bucket where the cumulative count crosses p. *)
      List.iter
        (fun p ->
          let q = Stats.percentile data p in
          let target = p /. 100.0 *. float_of_int n in
          let cum = ref 0 and crossing = ref None in
          Array.iteri
            (fun i c ->
              cum := !cum + c;
              if !crossing = None && float_of_int !cum >= target then crossing := Some i)
            counts;
          let lo, hi =
            match !crossing with
            | None -> (upper.(Array.length upper - 1), infinity)  (* crosses in overflow *)
            | Some i ->
                ( (if i = 0 then neg_infinity else upper.(i - 1)),
                  if i + 1 < Array.length upper then upper.(i + 1) else infinity )
          in
          Alcotest.(check bool)
            (Printf.sprintf "p%.0f=%g within bucket (%g, %g]" p q lo hi)
            true
            (q > lo && q <= hi +. 1e-9))
        [ 50.0; 90.0; 99.0 ]
  | _ -> Alcotest.fail "histogram series missing from registry"

(* --- registry semantics ------------------------------------------------- *)

let test_handles_shared_and_labels_sorted () =
  let reg = M.create () in
  let a = M.counter reg ~labels:[ ("ia", "71-225"); ("dir", "rx") ] "pkts" in
  let b = M.counter reg ~labels:[ ("dir", "rx"); ("ia", "71-225") ] "pkts" in
  M.inc a;
  M.add b 2;
  Alcotest.(check int) "one series registered" 1 (M.size reg);
  (match M.snapshot reg with
  | [ { M.sample_labels; value; _ } ] ->
      Alcotest.(check bool) "same series via either label order" true (value = M.Counter 3);
      Alcotest.(check (list (pair string string)))
        "labels stored sorted"
        [ ("dir", "rx"); ("ia", "71-225") ]
        sample_labels
  | _ -> Alcotest.fail "expected exactly one sample");
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Metrics: \"pkts\" is already registered as a counter")
    (fun () -> ignore (M.gauge reg ~labels:[ ("dir", "rx"); ("ia", "71-225") ] "pkts"))

(* --- JSON round-trips --------------------------------------------------- *)

let populated_registry () =
  let reg = M.create () in
  let c1 = M.counter reg ~labels:[ ("ia", "71-225") ] "router.forwarded" in
  let c2 = M.counter reg ~labels:[ ("ia", "71-2:0:5c") ] "router.forwarded" in
  let g = M.gauge reg "engine.queue_depth" in
  let h = M.histogram reg ~buckets:[ 0.001; 0.01; 0.1 ] "net.serialisation_wait_s" in
  let s = M.summary reg "rtt_ms" in
  M.add c1 41;
  M.inc c2;
  M.set g 17.5;
  List.iter (M.observe h) [ 0.0005; 0.05; 0.2 ];
  List.iter (M.record s) [ 1.0; 2.0; 3.0; 4.0 ];
  reg

let test_export_roundtrip () =
  let reg = populated_registry () in
  let json = Export.to_json reg in
  match Export.of_json json with
  | Error e -> Alcotest.fail ("of_json failed: " ^ e)
  | Ok samples ->
      Alcotest.(check int) "sample count survives" (M.size reg) (List.length samples);
      Alcotest.(check string) "re-serialising parsed samples is byte-identical" json
        (Export.samples_to_json samples);
      (* Counter values and labels survive the trip. *)
      let fwd =
        List.filter (fun s -> s.M.sample_name = "router.forwarded") samples
        |> List.map (fun s -> (s.M.sample_labels, s.M.value))
      in
      Alcotest.(check bool) "counter with labels survives" true
        (List.mem ([ ("ia", "71-225") ], M.Counter 41) fwd
        && List.mem ([ ("ia", "71-2:0:5c") ], M.Counter 1) fwd)

let test_export_rejects_garbage () =
  (match Export.of_json "{\"schema\":\"other/9\"}\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown schema accepted");
  match Export.of_json "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed input accepted"

(* The of_json error paths one by one: each corruption must be rejected
   with a message naming the problem, never silently repaired. *)
let expect_error what input =
  match Export.of_json input with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail (what ^ " accepted")

let test_export_error_paths () =
  let json = Export.to_json (populated_registry ()) in
  (* Truncated JSONL: cut the last line mid-object. *)
  let truncated = String.sub json 0 (String.length json - 20) in
  expect_error "truncated snapshot" truncated;
  (* Wrong schema version. *)
  expect_error "wrong schema version" "{\"schema\":\"sciera.telemetry/2\"}\n";
  (* Header is not even an object with a schema key. *)
  expect_error "headerless snapshot"
    "{\"name\":\"x\",\"labels\":{},\"type\":\"counter\",\"value\":1}\n";
  (* Empty input. *)
  expect_error "empty snapshot" "";
  (* Duplicate label keys within one series. *)
  expect_error "duplicate label keys"
    (Printf.sprintf
       "{\"schema\":\"%s\"}\n{\"name\":\"x\",\"labels\":{\"k\":\"a\",\"k\":\"b\"},\"type\":\"counter\",\"value\":1}\n"
       "sciera.telemetry/1");
  (* The same (name, labels) series twice. *)
  expect_error "duplicate series"
    (Printf.sprintf
       "{\"schema\":\"%s\"}\n\
        {\"name\":\"x\",\"labels\":{\"k\":\"a\"},\"type\":\"counter\",\"value\":1}\n\
        {\"name\":\"x\",\"labels\":{\"k\":\"a\"},\"type\":\"counter\",\"value\":2}\n"
       "sciera.telemetry/1");
  (* Unknown metric type. *)
  expect_error "unknown metric type"
    (Printf.sprintf "{\"schema\":\"%s\"}\n{\"name\":\"x\",\"labels\":{},\"type\":\"rate\",\"value\":1}\n"
       "sciera.telemetry/1");
  (* A well-formed snapshot with distinct labels still parses. *)
  match
    Export.of_json
      (Printf.sprintf
         "{\"schema\":\"%s\"}\n\
          {\"name\":\"x\",\"labels\":{\"k\":\"a\"},\"type\":\"counter\",\"value\":1}\n\
          {\"name\":\"x\",\"labels\":{\"k\":\"b\"},\"type\":\"counter\",\"value\":2}\n"
         "sciera.telemetry/1")
  with
  | Ok samples -> Alcotest.(check int) "distinct series parse" 2 (List.length samples)
  | Error e -> Alcotest.fail ("distinct series rejected: " ^ e)

let test_export_diff () =
  let reg_of counts =
    let reg = M.create () in
    List.iter (fun (name, n) -> M.add (M.counter reg name) n) counts;
    reg
  in
  let before = M.snapshot (reg_of [ ("a", 1); ("b", 2) ]) in
  let after = M.snapshot (reg_of [ ("b", 5); ("c", 7) ]) in
  (match Export.diff_samples before after with
  | [ Export.Removed r; Export.Changed (b0, b1); Export.Added a ] ->
      Alcotest.(check string) "removed" "a" r.M.sample_name;
      Alcotest.(check string) "changed" "b" b0.M.sample_name;
      Alcotest.(check bool) "changed value" true (b1.M.value = M.Counter 5);
      Alcotest.(check string) "added" "c" a.M.sample_name
  | other -> Alcotest.fail (Printf.sprintf "unexpected diff shape (%d changes)" (List.length other)));
  Alcotest.(check string) "identical snapshots" "no changes\n"
    (Export.render_diff (Export.diff_samples before before));
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1)) in
    go 0
  in
  let rendered = Export.render_diff (Export.diff_samples before after) in
  Alcotest.(check bool) "rendered diff shows counter delta" true (contains rendered "+3")

let test_json_float_repr_roundtrips () =
  List.iter
    (fun f ->
      let s = Json.float_repr f in
      Alcotest.(check (float 0.0)) (s ^ " round-trips") f (float_of_string s))
    [ 0.1; 1.0 /. 3.0; 17.5; 1e-9; 123456789.123456; 643457.435248296 ]

(* --- determinism across seeded runs -------------------------------------- *)

let simulate () =
  let obs = Sciera.Obs.create () in
  let net = Sciera.Network.create ~telemetry:obs ~verify_pcbs:false () in
  Sciera.Network.set_day net 1.0;
  (match Sciera.Host.attach net ~ia:(Scion_addr.Ia.of_string "71-225") () with
  | Error e -> Alcotest.fail ("host attach failed: " ^ e)
  | Ok host ->
      for _ = 1 to 3 do
        ignore (Sciera.Host.ping host ~dst:(Scion_addr.Ia.of_string "71-2:0:5c"))
      done);
  Sciera.Obs.snapshot_json obs

let test_snapshot_deterministic () =
  let a = simulate () in
  let b = simulate () in
  Alcotest.(check bool) "snapshot is non-trivial" true (String.length a > 1000);
  Alcotest.(check string) "two seeded runs serialise byte-identically" a b;
  (* And the snapshot parses back under the declared schema. *)
  match Export.of_json a with
  | Ok samples -> Alcotest.(check bool) "parsed back" true (List.length samples > 10)
  | Error e -> Alcotest.fail ("snapshot does not re-parse: " ^ e)

(* --- trace and log ------------------------------------------------------- *)

let test_trace_jsonl_stable () =
  let mk () =
    let t = Trace.create () in
    Trace.finish (Trace.span t ~now:1.0 "beacon") ~now:1.0 ~fields:[ ("ia", Trace.Str "71-225") ] ();
    let sp = Trace.span t ~now:2.0 "walk" in
    Trace.finish (Trace.span t ~now:2.5 "drop") ~now:2.5 ();
    Trace.finish sp ~now:3.5 ~fields:[ ("hops", Trace.Int 4); ("ok", Trace.Bool true) ] ();
    Trace.to_jsonl t
  in
  let a = mk () in
  Alcotest.(check string) "deterministic rendering" a (mk ());
  (* Spans take their seq when opened but are recorded when finished. *)
  Alcotest.(check string) "canonical JSONL"
    "{\"seq\":0,\"name\":\"beacon\",\"t\":1,\"end\":1,\"dur\":0,\"ia\":\"71-225\"}\n\
     {\"seq\":2,\"name\":\"drop\",\"t\":2.5,\"end\":2.5,\"dur\":0}\n\
     {\"seq\":1,\"name\":\"walk\",\"t\":2,\"end\":3.5,\"dur\":1.5,\"hops\":4,\"ok\":true}\n"
    a

let () =
  Alcotest.run "telemetry"
    [
      ( "quantiles",
        [
          Alcotest.test_case "summary matches Stats.percentile" `Quick test_summary_matches_stats;
          Alcotest.test_case "histogram brackets Stats.percentile" `Quick
            test_histogram_brackets_stats;
        ] );
      ( "registry",
        [
          Alcotest.test_case "handles shared, labels sorted" `Quick
            test_handles_shared_and_labels_sorted;
        ] );
      ( "json",
        [
          Alcotest.test_case "export round-trip" `Quick test_export_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_export_rejects_garbage;
          Alcotest.test_case "of_json error paths" `Quick test_export_error_paths;
          Alcotest.test_case "snapshot diff" `Quick test_export_diff;
          Alcotest.test_case "float repr round-trips" `Quick test_json_float_repr_roundtrips;
        ] );
      ( "determinism",
        [ Alcotest.test_case "seeded snapshot byte-identical" `Slow test_snapshot_deterministic ] );
      ( "trace-log",
        [
          Alcotest.test_case "trace JSONL stable" `Quick test_trace_jsonl_stable;
        ] );
    ]
