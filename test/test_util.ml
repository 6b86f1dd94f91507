open Scion_util

let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a max_int) (Rng.int b max_int)
  done

let test_rng_labels_differ () =
  let a = Rng.of_label 1L "alpha" and b = Rng.of_label 1L "beta" in
  Alcotest.(check bool) "different streams" true (Rng.int a max_int <> Rng.int b max_int)

let test_rng_split_independent () =
  let a = Rng.create 7L in
  let b = Rng.split a in
  Alcotest.(check bool) "split differs" true (Rng.int a max_int <> Rng.int b max_int)

let test_rng_int_bounds () =
  let r = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let r = Rng.create 4L in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_gaussian_moments () =
  let r = Rng.create 5L in
  (* The normal draw behind [lognormal], read back through [log]. *)
  let xs = Array.init 20000 (fun _ -> log (Rng.lognormal r ~mu:10.0 ~sigma:2.0)) in
  let m = Stats.mean xs in
  let s = Stats.stddev xs in
  Alcotest.(check bool) "mean close" true (abs_float (m -. 10.0) < 0.1);
  Alcotest.(check bool) "stddev close" true (abs_float (s -. 2.0) < 0.1)

let test_rng_exponential_mean () =
  let r = Rng.create 6L in
  let xs = Array.init 20000 (fun _ -> Rng.exponential r ~rate:0.5) in
  Alcotest.(check bool) "mean close to 2" true (abs_float (Stats.mean xs -. 2.0) < 0.1)

let test_rng_shuffle_permutation () =
  let r = Rng.create 8L in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 Fun.id) sorted

(* The first outputs of three kinds of stream, pinned bit for bit (floats
   as hex literals): any change to the generator's state handling or to a
   draw's retry loop shows up here before it reaches a figure. *)
let stream_outputs r =
  let floats xs = String.concat " " (List.map (Printf.sprintf "%h") xs) in
  let ints = List.init 3 (fun _ -> Rng.int r 1000) in
  let uniform = List.init 2 (fun _ -> Rng.float r 1.0) in
  let expo = List.init 2 (fun _ -> Rng.exponential r ~rate:0.5) in
  let logn = List.init 2 (fun _ -> Rng.lognormal r ~mu:1.0 ~sigma:0.5) in
  let raw = Rng.bytes r 6 in
  let perm = Array.init 8 Fun.id in
  Rng.shuffle r perm;
  Printf.sprintf "int %s | float %s | exp %s | logn %s | bytes %s | shuffle %s"
    (String.concat " " (List.map string_of_int ints))
    (floats uniform) (floats expo) (floats logn) (Hex.encode (Bytes.to_string raw))
    (String.concat "" (Array.to_list (Array.map string_of_int perm)))

let test_rng_pinned_streams () =
  let split_parent = Rng.create 42L in
  List.iter
    (fun (name, r, expected) -> Alcotest.(check string) name expected (stream_outputs r))
    [
      ( "create",
        Rng.create 42L,
        "int 853 72 964 | float 0x1.607387fc392b8p-2 0x1.378b0b448904p-5 \
         | exp 0x1.2162556b54adp-2 0x1.857aaf06cbb09p+1 \
         | logn 0x1.230c73338925p+1 0x1.8f0aca99bc8d8p+1 \
         | bytes bee6b7dcf275 | shuffle 15463027" );
      ( "of_label",
        Rng.of_label 7L "pin",
        "int 657 667 105 | float 0x1.6ad3686d053d4p-1 0x1.9ab2f1317d1ep-6 \
         | exp 0x1.a00f1f3c9559p-3 0x1.9fbbbb7211c95p-5 \
         | logn 0x1.d0efd5bc78eb1p+1 0x1.04fe86532e8e7p+2 \
         | bytes d03509fc5a00 | shuffle 64723150" );
      ( "split",
        Rng.split split_parent,
        "int 417 829 700 | float 0x1.13e5dec6f8fd8p-4 0x1.5a94b320c5fa2p-1 \
         | exp 0x1.59054eb92199ep+2 0x1.a2094deaad22dp+1 \
         | logn 0x1.d5d1623422db1p+1 0x1.0ced29427b037p+1 \
         | bytes bc52bc6ce201 | shuffle 50372461" );
    ]

let test_stats_mean_stddev () =
  check_float "mean" 3.0 (Stats.mean [| 1.0; 2.0; 3.0; 4.0; 5.0 |]);
  check_float "stddev" (sqrt 2.0) (Stats.stddev [| 1.0; 2.0; 3.0; 4.0; 5.0 |])

let test_stats_percentile () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p50" 3.0 (Stats.percentile xs 50.0);
  check_float "p100" 5.0 (Stats.percentile xs 100.0);
  check_float "p25" 2.0 (Stats.percentile xs 25.0);
  check_float "interpolated" 1.4 (Stats.percentile xs 10.0)

let test_stats_single_sample () =
  check_float "p90 of singleton" 7.0 (Stats.percentile [| 7.0 |] 90.0)

let test_stats_cdf () =
  let c = Stats.cdf [| 1.0; 2.0; 2.0; 4.0 |] in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "dedup points, cumulative fractions" [ (1.0, 0.25); (2.0, 0.75); (4.0, 1.0) ] c

let test_stats_resample () =
  let c = Stats.cdf (Array.init 1000 float_of_int) in
  let r = Stats.resample_cdf c 11 in
  Alcotest.(check int) "11 points" 11 (List.length r);
  check_float "keeps last fraction" 1.0 (snd (List.nth r 10))

let test_stats_boxplot () =
  let xs = Array.init 101 float_of_int in
  let b = Stats.boxplot xs in
  check_float "median" 50.0 b.Stats.med;
  check_float "q1" 25.0 b.Stats.q1;
  check_float "q3" 75.0 b.Stats.q3;
  check_float "low whisker" 5.0 b.Stats.low_whisker;
  check_float "high whisker" 95.0 b.Stats.high_whisker

let test_stats_histogram () =
  let h = Stats.histogram [| 0.0; 0.5; 1.0; 1.5; 2.0 |] ~bins:2 in
  Alcotest.(check int) "bins" 2 (Array.length h);
  Alcotest.(check int) "total preserved" 5 (Array.fold_left (fun a (_, c) -> a + c) 0 h)

let test_rw_roundtrip () =
  let w = Rw.Writer.create () in
  Rw.Writer.u8 w 0xAB;
  Rw.Writer.u16 w 0x1234;
  Rw.Writer.u32 w 0xDEADBEEFl;
  Rw.Writer.u64 w 0x0123456789ABCDEFL;
  Rw.Writer.raw w "hello";
  let r = Rw.Reader.of_string (Rw.Writer.contents w) in
  Alcotest.(check int) "u8" 0xAB (Rw.Reader.u8 r);
  Alcotest.(check int) "u16" 0x1234 (Rw.Reader.u16 r);
  Alcotest.(check int32) "u32" 0xDEADBEEFl (Rw.Reader.u32 r);
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Rw.Reader.u64 r);
  Alcotest.(check string) "raw" "hello" (Rw.Reader.raw r 5);
  Rw.Reader.expect_end r

let test_rw_truncated () =
  let r = Rw.Reader.of_string "\x01" in
  Alcotest.(check int) "u8 ok" 1 (Rw.Reader.u8 r);
  Alcotest.check_raises "u8 past end" Rw.Truncated (fun () -> ignore (Rw.Reader.u8 r))

let test_rw_expect_end_fails () =
  let r = Rw.Reader.of_string "xy" in
  Alcotest.check_raises "leftover" Rw.Truncated (fun () -> Rw.Reader.expect_end r)

let test_hex_roundtrip () =
  Alcotest.(check string) "encode" "00ff10" (Hex.encode "\x00\xff\x10");
  Alcotest.(check string) "decode" "\x00\xff\x10" (Hex.decode "00ff10");
  Alcotest.(check string) "decode upper" "\xAB" (Hex.decode "AB");
  Alcotest.(check string) "whitespace ok" "\xAB\xCD" (Hex.decode "ab cd")

let test_hex_invalid () =
  Alcotest.check_raises "odd" (Invalid_argument "Hex.decode: odd digit count") (fun () ->
      ignore (Hex.decode "abc"))

(* Pin the canonical free-form float format of the evidence harness:
   Stats.percentile results and the harness table renderer must agree on
   %.6g, or goldens would churn on formatting alone. *)
let test_fmt_float_canonical () =
  List.iter
    (fun (v, expect) -> Alcotest.(check string) expect expect (Table.fmt_float v))
    [
      (0.0, "0");
      (1.0, "1");
      (0.123456789, "0.123457");
      (1234567.0, "1.23457e+06");
      (133.0625, "133.062");
      (-2.5, "-2.5");
      (0.25, "0.25");
    ];
  (* Rendering a percentile goes through the same printf conversion. *)
  let data = Array.init 100 (fun i -> float_of_int i /. 7.0) in
  List.iter
    (fun p ->
      let v = Stats.percentile data p in
      Alcotest.(check string)
        (Printf.sprintf "p%g matches %%.6g" p)
        (Printf.sprintf "%.6g" v) (Table.fmt_float v))
    [ 50.0; 90.0; 99.0; 99.9 ]

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ] in
  Alcotest.(check bool) "contains rule" true (String.length s > 0);
  Alcotest.(check int) "4 lines" 4 (List.length (String.split_on_char '\n' (String.trim s)))

let test_table_sorted_iteration () =
  let t = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace t k v) [ (3, "c"); (1, "a"); (2, "b") ];
  let seen = ref [] in
  Table.iter_sorted (fun k v -> seen := (k, v) :: !seen) t;
  Alcotest.(check (list (pair int string)))
    "iter ascending" [ (1, "a"); (2, "b"); (3, "c") ] (List.rev !seen);
  Alcotest.(check (list int)) "fold ascending (cons reverses)" [ 3; 2; 1 ]
    (Table.fold_sorted (fun k _ acc -> k :: acc) t []);
  (* Hashtbl.add shadowing: only the current binding is visited, once. *)
  Hashtbl.add t 2 "B";
  Alcotest.(check (list int)) "shadowed key visited once" [ 3; 2; 1 ]
    (Table.fold_sorted (fun k _ acc -> k :: acc) t []);
  Alcotest.(check string) "current binding wins" "B"
    (String.concat "" (Table.fold_sorted (fun k v acc -> if k = 2 then v :: acc else acc) t []));
  let h = Hashtbl.create 4 in
  Hashtbl.replace h "k" 42;
  Alcotest.(check int) "find_or hit" 42 (Table.find_or ~default:0 h "k");
  Alcotest.(check string) "find_or miss" "none" (Table.find_or ~default:"none" (Hashtbl.create 1) 7)

let test_table_iter_matches_hashtbl () =
  (* fold_sorted must see exactly the bindings Hashtbl holds, independent of
     insertion order. *)
  let rng = Rng.create 99L in
  let t1 = Hashtbl.create 16 and t2 = Hashtbl.create 16 in
  let keys = Array.init 50 (fun i -> i) in
  Array.iter (fun k -> Hashtbl.replace t1 k (k * k)) keys;
  Rng.shuffle rng keys;
  Array.iter (fun k -> Hashtbl.replace t2 k (k * k)) keys;
  Alcotest.(check (list (pair int int)))
    "same sorted view regardless of insertion order"
    (Table.fold_sorted (fun k v acc -> (k, v) :: acc) t1 [])
    (Table.fold_sorted (fun k v acc -> (k, v) :: acc) t2 [])

(* --- Backoff ----------------------------------------------------------- *)

let test_backoff_growth_cap () =
  let p = Backoff.make ~base_ms:100.0 ~multiplier:2.0 ~cap_ms:1000.0 ~jitter:0.0 () in
  let d attempt = Backoff.delay_ms p ~rng:(Rng.create 0L) ~attempt in
  check_float "first retry at base" 100.0 (d 1);
  check_float "doubles" 200.0 (d 2);
  check_float "doubles again" 400.0 (d 3);
  check_float "hits the cap" 1000.0 (d 5);
  check_float "stays capped for huge attempts" 1000.0 (d 1000);
  Alcotest.(check bool) "attempt 0 rejected" true
    (match d 0 with exception Invalid_argument _ -> true | _ -> false)

let test_backoff_jitter () =
  let p = Backoff.make ~base_ms:100.0 ~jitter:0.5 () in
  let a = Backoff.delay_ms p ~rng:(Rng.create 9L) ~attempt:1 in
  let b = Backoff.delay_ms p ~rng:(Rng.create 9L) ~attempt:1 in
  check_float "same rng, same jittered delay" a b;
  Alcotest.(check bool) "jitter within [1-j, 1+j] band" true (a >= 50.0 && a <= 150.0);
  (* Across many draws the jitter must actually vary. *)
  let rng = Rng.create 10L in
  let ds = Array.init 50 (fun _ -> Backoff.delay_ms p ~rng ~attempt:1) in
  let lo, hi = Stats.min_max ds in
  Alcotest.(check bool) "jitter varies" true (hi -. lo > 1.0)

let test_backoff_zero_jitter_no_draw () =
  (* jitter = 0 must leave the caller's stream untouched. *)
  let p = Backoff.make ~jitter:0.0 () in
  let a = Rng.create 3L and b = Rng.create 3L in
  ignore (Backoff.delay_ms p ~rng:a ~attempt:4);
  Alcotest.(check int) "stream untouched" (Rng.int b max_int) (Rng.int a max_int)

let test_backoff_retry () =
  let p = Backoff.make ~base_ms:10.0 ~multiplier:2.0 ~cap_ms:100.0 ~jitter:0.0 ~max_attempts:4 () in
  let calls = ref 0 in
  let waited = ref 0.0 in
  (match
     Backoff.retry p ~rng:(Rng.create 1L)
       ~on_wait:(fun ~attempt:_ ~delay_ms -> waited := !waited +. delay_ms)
       (fun ~attempt ->
         incr calls;
         if attempt >= 3 then Ok "done" else Error `Again)
   with
  | Ok (v, attempts) ->
      Alcotest.(check string) "value" "done" v;
      Alcotest.(check int) "attempts" 3 attempts;
      Alcotest.(check int) "calls" 3 !calls;
      check_float "waited 10 + 20 between the three tries" 30.0 !waited
  | Error _ -> Alcotest.fail "should succeed on attempt 3");
  match Backoff.retry p ~rng:(Rng.create 1L) (fun ~attempt:_ -> Error `Nope) with
  | Ok _ -> Alcotest.fail "always-failing operation cannot succeed"
  | Error (g : _ Backoff.give_up) ->
      Alcotest.(check int) "exhausts the budget" 4 g.attempts;
      check_float "waited 10+20+40 between four tries" 70.0 g.waited_ms;
      Alcotest.(check bool) "carries last error" true (g.last_error = `Nope)

let test_backoff_validation () =
  let rejects f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "negative base" true (rejects (fun () -> Backoff.make ~base_ms:(-1.0) ()));
  Alcotest.(check bool) "multiplier < 1" true (rejects (fun () -> Backoff.make ~multiplier:0.5 ()));
  Alcotest.(check bool) "cap below base" true
    (rejects (fun () -> Backoff.make ~base_ms:100.0 ~cap_ms:50.0 ()));
  Alcotest.(check bool) "jitter > 1" true (rejects (fun () -> Backoff.make ~jitter:1.5 ()));
  Alcotest.(check bool) "nan jitter" true (rejects (fun () -> Backoff.make ~jitter:Float.nan ()));
  Alcotest.(check bool) "zero attempts" true (rejects (fun () -> Backoff.make ~max_attempts:0 ()))

let qcheck_rw_u64 =
  QCheck.Test.make ~name:"rw u64 roundtrip" ~count:200 QCheck.int64 (fun v ->
      let w = Rw.Writer.create () in
      Rw.Writer.u64 w v;
      Rw.Reader.u64 (Rw.Reader.of_string (Rw.Writer.contents w)) = v)

let qcheck_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 QCheck.string (fun s ->
      Hex.decode (Hex.encode s) = s)

let qcheck_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min/max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 40) (float_bound_exclusive 1000.0)) (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let arr = Array.of_list xs in
      let lo, hi = Stats.min_max arr in
      let v = Stats.percentile arr p in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let qcheck_cdf_monotone =
  QCheck.Test.make ~name:"cdf monotone" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 100.0))
    (fun xs ->
      let c = Stats.cdf (Array.of_list xs) in
      let rec mono = function
        | (v1, f1) :: ((v2, f2) :: _ as rest) -> v1 < v2 && f1 < f2 && mono rest
        | _ -> true
      in
      mono c && snd (List.nth c (List.length c - 1)) = 1.0)

let () =
  Alcotest.run "scion_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "labels differ" `Quick test_rng_labels_differ;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pinned streams" `Quick test_rng_pinned_streams;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean stddev" `Quick test_stats_mean_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "single sample" `Quick test_stats_single_sample;
          Alcotest.test_case "cdf" `Quick test_stats_cdf;
          Alcotest.test_case "resample" `Quick test_stats_resample;
          Alcotest.test_case "boxplot" `Quick test_stats_boxplot;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          QCheck_alcotest.to_alcotest qcheck_percentile_bounds;
          QCheck_alcotest.to_alcotest qcheck_cdf_monotone;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "delay growth and cap" `Quick test_backoff_growth_cap;
          Alcotest.test_case "jitter determinism" `Quick test_backoff_jitter;
          Alcotest.test_case "zero jitter draws nothing" `Quick test_backoff_zero_jitter_no_draw;
          Alcotest.test_case "retry success and give_up" `Quick test_backoff_retry;
          Alcotest.test_case "policy validation" `Quick test_backoff_validation;
        ] );
      ( "rw",
        [
          Alcotest.test_case "roundtrip" `Quick test_rw_roundtrip;
          Alcotest.test_case "truncated" `Quick test_rw_truncated;
          Alcotest.test_case "expect_end" `Quick test_rw_expect_end_fails;
          QCheck_alcotest.to_alcotest qcheck_rw_u64;
        ] );
      ( "hex",
        [
          Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "invalid" `Quick test_hex_invalid;
          QCheck_alcotest.to_alcotest qcheck_hex_roundtrip;
        ] );
      ( "table",
        [
          Alcotest.test_case "canonical float format" `Quick test_fmt_float_canonical;
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "sorted iteration" `Quick test_table_sorted_iteration;
          Alcotest.test_case "insertion-order independent" `Quick test_table_iter_matches_hashtbl;
        ] );
    ]
