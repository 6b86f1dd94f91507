(* Tests for scion-lint: each rule against small inline sources with known
   violations and known-clean code, the suppression-comment mechanism, the
   JSON reporter, and finally a sweep asserting the whole repo is clean. *)

module Lint = Scion_lint_lib.Lint
module Lint_rules = Scion_lint_lib.Lint_rules
module Driver = Scion_lint_lib.Driver
module Baseline = Scion_lint_lib.Baseline
module Ipa = Scion_lint_lib.Ipa

let rules = Lint_rules.rules

let lint_tree ?baseline_file ~root ~dirs () = Driver.lint_tree ?baseline_file ~rules ~root ~dirs ()

let lint ?registry ?(file = "lib/netsim/fixture.ml") src =
  Lint.lint_source ?registry ~rules ~file src

let rule_ids findings = List.map (fun (f : Lint.finding) -> f.Lint.rule) findings

let check_flags ~rule ?file src =
  Alcotest.(check bool)
    (Printf.sprintf "flags %s" rule)
    true
    (List.mem rule (rule_ids (lint ?file src)))

let check_clean ?file src =
  Alcotest.(check (list string)) "clean" [] (rule_ids (lint ?file src))

(* --- R1: determinism ---------------------------------------------------- *)

let test_determinism_clock () =
  check_flags ~rule:"determinism" "let now () = Unix.gettimeofday ()";
  check_flags ~rule:"determinism" "let t = Sys.time ()";
  check_flags ~rule:"determinism" "let t = Unix.time ()";
  check_clean "let now t = Engine.now t"

let test_determinism_random () =
  check_flags ~rule:"determinism" "let x = Random.int 10";
  check_flags ~rule:"determinism" "let x = Random.State.bool st";
  (* The sanctioned source is exempt wholesale. *)
  Alcotest.(check (list string)) "rng.ml exempt" []
    (rule_ids (lint ~file:"lib/util/rng.ml" "let x = Random.int 10"))

let test_determinism_hash_order () =
  check_flags ~rule:"determinism" "let xs t = Hashtbl.fold (fun k _ a -> k :: a) t []";
  check_flags ~rule:"determinism" "let f t = Hashtbl.iter print t";
  check_flags ~rule:"determinism" "let s t = Hashtbl.to_seq t";
  (* Order-dependent iteration is only banned inside lib/. *)
  Alcotest.(check (list string)) "bench exempt" []
    (rule_ids (lint ~file:"bench/fixture.ml" "let f t = Hashtbl.iter print t"));
  check_clean "let xs t = Scion_util.Table.fold_sorted (fun k _ a -> k :: a) t []"

(* --- R2: totality ------------------------------------------------------- *)

let test_totality () =
  check_flags ~rule:"totality" "let f xs = List.hd xs";
  check_flags ~rule:"totality" "let f xs = List.tl xs";
  check_flags ~rule:"totality" "let f o = Option.get o";
  check_flags ~rule:"totality" "let f t k = Hashtbl.find t k";
  check_clean "let f t k = Hashtbl.find_opt t k";
  check_clean "let f xs = match xs with x :: _ -> x | [] -> invalid_arg \"empty\""

(* --- R3: exception hygiene ---------------------------------------------- *)

let test_catch_all () =
  check_flags ~rule:"catch-all-exn" "let f g = try g () with _ -> 0";
  check_flags ~rule:"catch-all-exn" "let f g = match g () with x -> x | exception _ -> 0";
  check_clean "let f g = try g () with Not_found -> 0";
  (* Binding the exception (rather than wildcarding it) is allowed. *)
  check_clean "let f g = try g () with e -> raise e"

(* --- R4: float discipline ----------------------------------------------- *)

let test_float_eq () =
  check_flags ~rule:"float-eq" "let f x = x = 1.0";
  check_flags ~rule:"float-eq" "let f a b = a.time = b.time";
  check_flags ~rule:"float-eq" "let f x y = x <> y +. 1.0";
  check_flags ~rule:"float-eq" "let f x now = x = now";
  check_clean "let f x = x = 1";
  check_clean "let f a b = Float.equal a.time b.time";
  check_clean "let f a b = a.time < b.time"

(* --- R5: interface coverage --------------------------------------------- *)

let tree_rule_ids findings = List.map (fun (f : Lint.finding) -> (f.Lint.file, f.Lint.rule)) findings

let with_temp_tree files k =
  let root = Filename.temp_file "scion_lint_test" "" in
  Sys.remove root;
  Unix.mkdir root 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
    (fun () ->
      List.iter
        (fun (path, contents) ->
          let rec ensure_dir d =
            if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
              ensure_dir (Filename.dirname d);
              Unix.mkdir d 0o755
            end
          in
          let full = Filename.concat root path in
          ensure_dir (Filename.dirname full);
          Out_channel.with_open_bin full (fun oc -> Out_channel.output_string oc contents))
        files;
      k root)

let test_missing_mli () =
  with_temp_tree
    [ ("lib/x/covered.ml", "let x = 1"); ("lib/x/covered.mli", "val x : int");
      ("lib/x/naked.ml", "let y = 2"); ("bin/tool.ml", "let () = ()") ]
    (fun root ->
      let findings = lint_tree ~root ~dirs:[ "lib"; "bin" ] () in
      let pairs = tree_rule_ids findings in
      Alcotest.(check bool) "naked.ml flagged" true (List.mem ("lib/x/naked.ml", "missing-mli") pairs);
      Alcotest.(check bool) "covered.ml clean" false (List.mem ("lib/x/covered.ml", "missing-mli") pairs);
      (* Executables outside lib/ need no interface. *)
      Alcotest.(check bool) "bin exempt" false (List.mem ("bin/tool.ml", "missing-mli") pairs))

(* --- R6: ignored results ------------------------------------------------ *)

let test_ignored_result () =
  (* Registry built from an .mli declaring a result-returning function. *)
  with_temp_tree
    [ ("lib/x/codec.ml", "let decode s = Ok s\nlet run () = ignore (decode \"x\")\n");
      ("lib/x/codec.mli", "val decode : string -> (string, string) result\nval run : unit -> unit\n");
      ("lib/x/user.ml", "let f () = ignore (Codec.decode \"y\")\nlet g () = let _ = Codec.decode \"z\" in ()\n");
      ("lib/x/user.mli", "val f : unit -> unit\nval g : unit -> unit\n") ]
    (fun root ->
      let findings = lint_tree ~root ~dirs:[ "lib" ] () in
      let hits = List.filter (fun (f : Lint.finding) -> f.Lint.rule = "ignored-result") findings in
      Alcotest.(check bool) "qualified ignore flagged" true
        (List.exists (fun (f : Lint.finding) -> f.Lint.file = "lib/x/user.ml" && f.Lint.line = 1) hits);
      Alcotest.(check bool) "let _ = flagged" true
        (List.exists (fun (f : Lint.finding) -> f.Lint.file = "lib/x/user.ml" && f.Lint.line = 2) hits));
  (* Direct Ok/Error constructs need no registry. *)
  check_flags ~rule:"ignored-result" "let f x = ignore (Ok x)";
  check_clean "let f x = ignore (x + 1)"

(* --- R7: print discipline ----------------------------------------------- *)

let test_naked_printf () =
  check_flags ~rule:"naked-printf" "let f () = Printf.printf \"x %d\\n\" 1";
  check_flags ~rule:"naked-printf" "let f s = print_endline s";
  check_flags ~rule:"naked-printf" "let f () = print_newline ()";
  check_flags ~rule:"naked-printf" "let f s = prerr_endline s";
  (* The sanctioned replacement: append to the caller's buffer. *)
  check_clean "let f b = Printf.bprintf b \"x %d\\n\" 1";
  check_clean "let f b = Buffer.add_string b (Table.render ~header:[] ~rows:[])";
  (* Printf.sprintf only formats, it does not print. *)
  check_clean "let f x = Printf.sprintf \"%d\" x";
  (* No lib/ directory is exempt. *)
  check_flags ~rule:"naked-printf" ~file:"lib/telemetry/fixture.ml" "let f s = print_string s";
  (* Executables may print. *)
  Alcotest.(check (list string)) "bin exempt" []
    (rule_ids (lint ~file:"bin/tool.ml" "let () = print_endline \"hi\""));
  Alcotest.(check (list string)) "bench exempt" []
    (rule_ids (lint ~file:"bench/fixture.ml" "let () = Printf.printf \"%d\\n\" 1"))

(* --- R8: retry discipline ----------------------------------------------- *)

let test_unbounded_retry () =
  (* A hand-rolled retry loop that never consults Backoff. *)
  check_flags ~rule:"unbounded-retry"
    "let rec retry_fetch f = match f () with Some v -> v | None -> retry_fetch f";
  check_flags ~rule:"unbounded-retry"
    "let with_retries f = let rec go n = if n > 5 then None else match f () with Some v -> Some v | None -> go (n + 1) in go 0";
  (* Going through the shared policy is the sanctioned shape. *)
  check_clean
    "let retry_fetch ~rng f = Scion_util.Backoff.retry Scion_util.Backoff.default ~rng (fun ~attempt:_ -> f ())";
  check_clean "let retry_delay p ~rng ~attempt = Backoff.delay_ms p ~rng ~attempt";
  (* Bindings that merely plumb a policy through are typed as such. *)
  check_clean "let retry : Scion_util.Backoff.policy option = None";
  (* Non-retry names are not the rule's business. *)
  check_clean "let rec poll f = match f () with Some v -> v | None -> poll f";
  (* Backoff's own implementation is exempt, as are executables. *)
  Alcotest.(check (list string)) "backoff.ml exempt" []
    (rule_ids
       (lint ~file:"lib/util/backoff.ml"
          "let rec retry_go f = match f () with Some v -> v | None -> retry_go f"));
  Alcotest.(check (list string)) "bench exempt" []
    (rule_ids
       (lint ~file:"bench/fixture.ml"
          "let rec retry_go f = match f () with Some v -> v | None -> retry_go f"))

(* --- R9: global state ----------------------------------------------------- *)

let test_global_state () =
  check_flags ~rule:"global-state" "let sink = ref print_string";
  check_flags ~rule:"global-state" "let seen : (int, unit) Hashtbl.t = Hashtbl.create 16";
  check_flags ~rule:"global-state" "let scratch = Array.make 11 0";
  check_flags ~rule:"global-state" "let out = Buffer.create 256";
  check_flags ~rule:"global-state" "let cache = create ()";
  check_flags ~rule:"global-state" "let cache = Sigcache.create ()";
  check_flags ~rule:"global-state" "module Inner = struct let hits = ref 0 end";
  (* State a function allocates per call belongs to that call. *)
  check_clean "let make () = ref 0";
  check_clean "let f n = let t = Hashtbl.create n in Hashtbl.length t";
  check_clean "let counter = fun () -> ref 0";
  (* Immutable values, and [create] applied to real arguments, are not it. *)
  check_clean "let one = Array.init 11 (fun i -> if i = 0 then 1 else 0)";
  check_clean "let reg = create 16";
  check_clean "let cfg = make_config ()";
  (* Only lib/ holds run state; executables may keep their own. *)
  Alcotest.(check (list string)) "bench exempt" []
    (rule_ids (lint ~file:"bench/fixture.ml" "let failures = ref 0"));
  (* A justified suppression silences it, like any other rule. *)
  let src =
    Printf.sprintf "(* scion-lint%s allow global-state -- test *)\nlet zero = Array.make 11 0\n" ":"
  in
  Alcotest.(check (list string)) "suppressible" [] (rule_ids (lint src))

(* --- Suppression, severity, reporters ----------------------------------- *)

(* Directives are assembled by concatenation so the linter never mistakes
   these test fixtures for suppressions of this file. *)
let allow rule = Printf.sprintf "(* scion-lint%s allow %s -- test fixture *)" ":" rule

let test_suppression () =
  let src = Printf.sprintf "let f xs = List.hd xs %s\n" (allow "totality") in
  Alcotest.(check (list string)) "same-line suppressed" [] (rule_ids (lint src));
  let src = Printf.sprintf "%s\nlet f xs = List.hd xs\n" (allow "totality") in
  Alcotest.(check (list string)) "line-above suppressed" [] (rule_ids (lint src));
  let src = Printf.sprintf "%s\nlet f xs = List.hd xs\n" (allow "all") in
  Alcotest.(check (list string)) "allow all" [] (rule_ids (lint src));
  (* Suppressing one rule does not blanket the line. *)
  let src = Printf.sprintf "let f t = Hashtbl.iter print t %s\n" (allow "totality") in
  Alcotest.(check (list string)) "other rules still fire" [ "determinism" ] (rule_ids (lint src));
  (* A suppression two lines up has no effect. *)
  let src = Printf.sprintf "%s\n\nlet f xs = List.hd xs\n" (allow "totality") in
  Alcotest.(check (list string)) "out of range" [ "totality" ] (rule_ids (lint src));
  (* unbounded-retry is suppressible like any other rule. *)
  let src =
    Printf.sprintf "%s\nlet rec retry_go f = match f () with Some v -> v | None -> retry_go f\n"
      (allow "unbounded-retry")
  in
  Alcotest.(check (list string)) "unbounded-retry suppressible" [] (rule_ids (lint src))

let test_bad_directive () =
  let src = Printf.sprintf "let x = 1 %s\n" (allow "no-such-rule") in
  Alcotest.(check (list string)) "unknown rule id reported" [ "lint-directive" ] (rule_ids (lint src));
  let src = "(* scion-lint" ^ ": frobnicate totality *)\nlet x = 1\n" in
  Alcotest.(check (list string)) "malformed directive reported" [ "lint-directive" ]
    (rule_ids (lint src));
  (* Prose that merely mentions the marker mid-comment is not a directive. *)
  let src = "(* see scion-lint" ^ ": the linter docs *)\nlet x = 1\n" in
  Alcotest.(check (list string)) "prose mention ignored" [] (rule_ids (lint src))

let test_severity_and_parse_error () =
  let findings = lint "let f x = x = 1.0" in
  Alcotest.(check bool) "float-eq is warn-severity" true
    (List.exists (fun (f : Lint.finding) -> f.Lint.rule = "float-eq" && f.Lint.severity = Lint.Warn)
       findings);
  Alcotest.(check bool) "warnings do not fail the build" false (Lint.has_errors findings);
  let findings = lint "let f = (" in
  Alcotest.(check (list string)) "syntax error reported" [ "parse" ] (rule_ids findings);
  Alcotest.(check bool) "parse errors fail the build" true (Lint.has_errors findings)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let test_json_reporter () =
  let findings = lint "let f xs = List.hd xs" in
  let json = Lint.report_json findings in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "json has %s" needle) true (contains json needle))
    [ {|"file":"lib/netsim/fixture.ml"|}; {|"line":1|}; {|"rule":"totality"|};
      {|"severity":"error"|}; {|"message":"|}; {|"pass":"file"|} ]

(* --- Interprocedural passes --------------------------------------------- *)

(* Directive fixtures are assembled by concatenation, like [allow] above. *)
let hotpath_directive = Printf.sprintf "(* scion-lint%s hotpath *)" ":"
let stream_directive name = Printf.sprintf "(* scion-lint%s rng-stream %s *)" ":" name

let pass_findings findings =
  List.filter (fun (f : Lint.finding) -> List.mem f.Lint.rule Lint.pass_rule_ids) findings

let pass_ids findings = List.map (fun (f : Lint.finding) -> f.Lint.rule) (pass_findings findings)

let test_rng_duplicate_label () =
  (* The same label constructed in two different lib subsystems. *)
  with_temp_tree
    [ ("lib/a/one.ml", "let r seed = Scion_util.Rng.of_label seed \"shared.stream\"\n");
      ("lib/b/two.ml", "let r seed = Scion_util.Rng.of_label seed \"shared.stream\"\n") ]
    (fun root ->
      let hits = pass_findings (lint_tree ~root ~dirs:[ "lib" ] ()) in
      Alcotest.(check int) "both sites flagged" 2 (List.length hits);
      List.iter
        (fun (f : Lint.finding) ->
          Alcotest.(check string) "rule" "rng-stream-provenance" f.Lint.rule)
        hits);
  (* Same label twice within one subsystem is that subsystem's business. *)
  with_temp_tree
    [ ("lib/a/one.ml", "let r seed = Scion_util.Rng.of_label seed \"shared.stream\"\n");
      ("lib/a/two.ml", "let r seed = Scion_util.Rng.of_label seed \"shared.stream\"\n") ]
    (fun root ->
      Alcotest.(check (list string)) "same subsystem clean" []
        (pass_ids (lint_tree ~root ~dirs:[ "lib" ] ())))

(* A caller keeps [Api.sample] a live export, so only the escape check can
   fire on these fixtures. *)
let api_caller = ("lib/b/user.ml", "let draw rng = Api.sample rng\n")

let test_rng_interface_escape () =
  with_temp_tree
    [ ("lib/a/api.ml", "let sample rng = Scion_util.Rng.float rng 1.0\n");
      ("lib/a/api.mli", "val sample : Scion_util.Rng.t -> float\n"); api_caller ]
    (fun root ->
      let hits = pass_findings (lint_tree ~root ~dirs:[ "lib" ] ()) in
      Alcotest.(check (list string)) "unannotated escape flagged" [ "rng-stream-provenance" ]
        (List.map (fun (f : Lint.finding) -> f.Lint.rule) hits);
      Alcotest.(check string) "names the val" "sample" (List.hd hits).Lint.symbol);
  with_temp_tree
    [ ("lib/a/api.ml", "let sample rng = Scion_util.Rng.float rng 1.0\n");
      ( "lib/a/api.mli",
        stream_directive "caller" ^ "\nval sample : Scion_util.Rng.t -> float\n" );
      api_caller ]
    (fun root ->
      Alcotest.(check (list string)) "annotated escape clean" []
        (pass_ids (lint_tree ~root ~dirs:[ "lib" ] ())))

let test_rng_stream_race () =
  (* [jitter] draws from a stream it neither received nor created, and is
     reachable both from the workload hand-off (sender -> step) and from the
     fault hand-off (fault -> inject): the determinism race. *)
  let core_race =
    "let shared = Scion_util.Rng.of_label 1L \"boot\"\n\
     let jitter () = Scion_util.Rng.float shared 1.0\n\
     let step rng = ignore (Scion_util.Rng.float rng 1.0); jitter ()\n\
     let inject rng = ignore (Scion_util.Rng.int rng 3); jitter ()\n"
  in
  let exp_both =
    "let run seed =\n\
    \  let wl = Scion_util.Rng.of_label seed \"sender\" in\n\
    \  let fr = Scion_util.Rng.of_label seed \"fault\" in\n\
    \  Core.step wl;\n\
    \  Core.inject fr\n"
  in
  with_temp_tree
    [ ("lib/a/core.ml", core_race); ("lib/b/exp.ml", exp_both) ]
    (fun root ->
      let hits = pass_findings (lint_tree ~root ~dirs:[ "lib" ] ()) in
      Alcotest.(check (list string)) "race flagged" [ "rng-stream-provenance" ]
        (List.map (fun (f : Lint.finding) -> f.Lint.rule) hits);
      let f = List.hd hits in
      Alcotest.(check string) "at the captured draw" "lib/a/core.ml" f.Lint.file;
      Alcotest.(check string) "names the sink" "Core.jitter" f.Lint.symbol);
  (* Only the workload side reaches the sink: no race. *)
  let exp_workload_only =
    "let run seed =\n\
    \  let wl = Scion_util.Rng.of_label seed \"sender\" in\n\
    \  let fr = Scion_util.Rng.of_label seed \"fault\" in\n\
    \  ignore (Scion_util.Rng.int fr 3);\n\
    \  Core.step wl\n"
  in
  with_temp_tree
    [ ("lib/a/core.ml", core_race); ("lib/b/exp.ml", exp_workload_only) ]
    (fun root ->
      Alcotest.(check (list string)) "one-sided reach clean" []
        (pass_ids (lint_tree ~root ~dirs:[ "lib" ] ())))

let hotpath_fixture helper2_body =
  [ ( "lib/x/fast.ml",
      Printf.sprintf
        "let helper2 x = %s\nlet helper x = helper2 x\n%s\nlet entry x = helper x\n" helper2_body
        hotpath_directive ) ]

let test_hotpath_allocation () =
  (* A tuple allocation two call hops below the annotated seed. *)
  with_temp_tree (hotpath_fixture "(x, x)") (fun root ->
      let hits = pass_findings (lint_tree ~root ~dirs:[ "lib" ] ()) in
      Alcotest.(check (list string)) "allocation flagged" [ "hotpath-allocation" ]
        (List.map (fun (f : Lint.finding) -> f.Lint.rule) hits);
      let f = List.hd hits in
      Alcotest.(check string) "in the transitive callee" "Fast.helper2" f.Lint.symbol;
      Alcotest.(check (list string)) "carries the call chain"
        [ "Fast.entry"; "Fast.helper"; "Fast.helper2" ]
        f.Lint.chain;
      Alcotest.(check string) "carries the allocation kind" "tuple" f.Lint.detail);
  (* Without the seed annotation the same tree is silent. *)
  with_temp_tree
    [ ("lib/x/fast.ml", "let helper2 x = (x, x)\nlet helper x = helper2 x\nlet entry x = helper x\n") ]
    (fun root ->
      Alcotest.(check (list string)) "no seed, no findings" []
        (pass_ids (lint_tree ~root ~dirs:[ "lib" ] ())))

let test_telemetry_names () =
  (* The same series name registered from two different modules. *)
  with_temp_tree
    [ ("lib/a/m1.ml", "let c reg = Telemetry.Metrics.counter reg \"dup.series\"\n");
      ("lib/b/m2.ml", "let c reg = Telemetry.Metrics.counter reg \"dup.series\"\n") ]
    (fun root ->
      let hits = pass_findings (lint_tree ~root ~dirs:[ "lib" ] ()) in
      Alcotest.(check (list string)) "both registrations flagged"
        [ "telemetry-registry"; "telemetry-registry" ]
        (List.map (fun (f : Lint.finding) -> f.Lint.rule) hits));
  (* A computed name in lib/ defeats static checking. *)
  with_temp_tree
    [ ("lib/a/m1.ml", "let g reg id = Telemetry.Metrics.gauge reg (Printf.sprintf \"x.%s\" id)\n") ]
    (fun root ->
      let hits = pass_findings (lint_tree ~root ~dirs:[ "lib" ] ()) in
      Alcotest.(check (list string)) "dynamic name flagged" [ "telemetry-registry" ]
        (List.map (fun (f : Lint.finding) -> f.Lint.rule) hits));
  (* Distinct literal names, no registry file: clean. *)
  with_temp_tree
    [ ("lib/a/m1.ml", "let c reg = Telemetry.Metrics.counter reg \"a.series\"\n");
      ("lib/b/m2.ml", "let c reg = Telemetry.Metrics.counter reg \"b.series\"\n") ]
    (fun root ->
      Alcotest.(check (list string)) "distinct names clean" []
        (pass_ids (lint_tree ~root ~dirs:[ "lib" ] ())))

let test_telemetry_registry_file () =
  (* Registry declares a stale series and misses a live one: both directions
     must fail, and the agreeing pair stays silent. *)
  with_temp_tree
    [ ("lib/a/m1.ml",
       "let a reg = Telemetry.Metrics.counter reg \"a.series\"\n\
        let b reg = Telemetry.Metrics.counter reg \"b.series\"\n");
      ("devtools/lint/telemetry.registry", "# registry\na.series\nzombie.series\n") ]
    (fun root ->
      let hits = pass_findings (lint_tree ~root ~dirs:[ "lib" ] ()) in
      let details = List.sort String.compare (List.map (fun (f : Lint.finding) -> f.Lint.detail) hits) in
      Alcotest.(check (list string)) "rename fails both ways" [ "stale-entry"; "unregistered" ]
        details;
      Alcotest.(check bool) "stale entry anchored in the registry file" true
        (List.exists
           (fun (f : Lint.finding) -> f.Lint.file = "devtools/lint/telemetry.registry")
           hits))

let test_json_link_fields () =
  (* Link findings carry the pass, enclosing symbol, allocation kind and
     call chain in the JSON report. *)
  with_temp_tree (hotpath_fixture "(x, x)") (fun root ->
      let json = Lint.report_json (pass_findings (lint_tree ~root ~dirs:[ "lib" ] ())) in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (Printf.sprintf "json has %s" needle) true (contains json needle))
        [ {|"pass":"link"|}; {|"rule":"hotpath-allocation"|}; {|"symbol":"Fast.helper2"|};
          {|"kind":"tuple"|}; {|"chain":["Fast.entry","Fast.helper","Fast.helper2"]|} ])

let dead_symbols findings =
  List.filter_map
    (fun (f : Lint.finding) -> if f.Lint.rule = "dead-export" then Some f.Lint.symbol else None)
    findings

(* [M.used] has a real caller, [M.test_only] is reached only from test/. *)
let dead_export_fixture =
  [ ("lib/x/m.ml", "let used x = x\nlet test_only x = x\n");
    ("lib/x/m.mli", "val used : int -> int\nval test_only : int -> int\n");
    ("bin/main.ml", "let () = ignore (Scion_x.M.used 1)\n");
    ("test/test_m.ml", "let () = ignore (M.test_only 1)\n") ]

let test_dead_export_test_only () =
  with_temp_tree dead_export_fixture (fun root ->
      let findings = lint_tree ~root ~dirs:[ "lib"; "bin"; "test" ] () in
      Alcotest.(check (list string)) "test-only export reported" [ "M.test_only" ]
        (dead_symbols findings);
      let json = Lint.report_json findings in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (Printf.sprintf "json has %s" needle) true (contains json needle))
        [ {|"rule":"dead-export"|}; {|"symbol":"M.test_only"|}; {|"file":"lib/x/m.mli"|} ])

(* Every reference the pass cannot resolve by name still counts as a use:
   only [Dead.unused], the control, may be reported. *)
let test_dead_export_indirect_uses () =
  let intf name = (Printf.sprintf "lib/a/%s.mli" name, "val f : int -> int\n") in
  let impl name = (Printf.sprintf "lib/a/%s.ml" name, "let f x = x\n") in
  let modules = [ "fc"; "op"; "lo"; "inc"; "fa"; "be"; "dead" ] in
  with_temp_tree
    (List.map intf modules @ List.map impl modules
    @ [ ("bin/first_class.ml", "let xs = List.map Fc.f [ 1 ]\n");
        ("bin/opened.ml", "open Op\nlet x = f 1\n");
        ("bin/local_open.ml", "let x = let open Lo in f 1\n");
        ("lib/b/wrap.ml", "include Inc\n");
        ("bin/functor_arg.ml", "module S = Wrap.Make (Fa)\n");
        ("bench/e2e/run.ml", "let () = ignore (Be.f 1)\n") ])
    (fun root ->
      Alcotest.(check (list string)) "only the unreferenced control" [ "Dead.f" ]
        (dead_symbols (lint_tree ~root ~dirs:[ "lib"; "bin"; "bench" ] ())))

let test_dead_export_rule_listed () =
  Alcotest.(check bool) "--list-rules documents dead-export" true
    (List.mem_assoc "dead-export" Ipa.pass_docs);
  Alcotest.(check bool) "dead-export is an allow-able pass id" true
    (List.mem "dead-export" Lint.pass_rule_ids)

(* --- Baseline ratchet ---------------------------------------------------- *)

let with_baseline_of findings k =
  let path = Filename.temp_file "scion_lint_baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Baseline.to_string findings));
      k path)

let test_baseline_ratchet () =
  with_temp_tree (hotpath_fixture "(x, x)") (fun root ->
      let before = lint_tree ~root ~dirs:[ "lib" ] () in
      Alcotest.(check bool) "tree has findings to baseline" true (before <> []);
      with_baseline_of before (fun baseline_file ->
          (* Same tree under its own baseline: fully forgiven. *)
          Alcotest.(check (list string)) "old findings accepted" []
            (List.map Lint.to_text (lint_tree ~baseline_file ~root ~dirs:[ "lib" ] ()));
          (* One extra allocation of an already-baselined kind in the same
             function: only the new occurrence fails. *)
          with_temp_tree (hotpath_fixture "((x, x), x)") (fun root2 ->
              let after = lint_tree ~baseline_file ~root:root2 ~dirs:[ "lib" ] () in
              Alcotest.(check (list string)) "new finding rejected" [ "hotpath-allocation" ]
                (List.map (fun (f : Lint.finding) -> f.Lint.rule) after))))

let test_baseline_both_passes () =
  let tree extra = hotpath_fixture "(x, x)" @ dead_export_fixture @ extra in
  let dirs = [ "lib"; "bin"; "test" ] in
  with_temp_tree (tree []) (fun root ->
      let before = lint_tree ~root ~dirs () in
      (* What --write-baseline writes carries entries for both passes. *)
      let written = Baseline.to_string before in
      List.iter
        (fun key ->
          Alcotest.(check bool) (Printf.sprintf "baseline has %s" key) true (contains written key))
        [ "hotpath-allocation|lib/x/fast.ml|Fast.helper2|tuple"; "dead-export|lib/x/m.mli|M.test_only|" ];
      with_baseline_of before (fun baseline_file ->
          Alcotest.(check (list string)) "old findings accepted" []
            (List.map Lint.to_text (lint_tree ~baseline_file ~root ~dirs ()));
          (* One more unreferenced export fails under the old baseline. *)
          with_temp_tree
            (tree [ ("lib/x/n.ml", "let g x = x\n"); ("lib/x/n.mli", "val g : int -> int\n") ])
            (fun root2 ->
              Alcotest.(check (list string)) "new dead export rejected" [ "N.g" ]
                (dead_symbols (lint_tree ~baseline_file ~root:root2 ~dirs ())))))

(* --- Phase 1 parses each file exactly once ------------------------------- *)

let test_parse_once () =
  with_temp_tree
    [ ("lib/x/a.ml", "let v = 1\n"); ("lib/x/a.mli", "val v : int\n");
      ("lib/x/b.ml", "let w = A.v + 1\n"); ("bin/tool.ml", "let () = ()\n") ]
    (fun root ->
      Lint.reset_parse_counts ();
      let { Driver.an_files = files; _ } =
        Driver.analyze ~rules ~root ~dirs:[ "lib"; "bin" ] ()
      in
      Alcotest.(check int) "all files visited" 4 (List.length files);
      List.iter
        (fun file ->
          Alcotest.(check int)
            (Printf.sprintf "%s parsed exactly once" file)
            1 (Lint.parse_count file))
        files)

(* --- The repo itself must be lint-clean --------------------------------- *)

let test_repo_clean () =
  (* The test binary runs in _build/default/test; the tree one level up is
     populated from the (source_tree ..) deps in test/dune. *)
  let root = ".." in
  let dirs =
    List.filter
      (fun d -> Sys.file_exists (Filename.concat root d))
      [ "lib"; "bin"; "bench"; "examples"; "devtools" ]
  in
  Alcotest.(check bool) "source tree present" true (List.mem "lib" dirs);
  (* Even without the ratchet, the forwarding hot path allocates nothing
     (the fixtures above prove the pass fires), and the only interprocedural
     findings are the ratcheted dead exports. *)
  let raw_pass = pass_findings (lint_tree ~root ~dirs ()) in
  Alcotest.(check (list string)) "no hotpath allocations, even without the baseline" []
    (List.map Lint.to_text
       (List.filter (fun (f : Lint.finding) -> f.Lint.rule = "hotpath-allocation") raw_pass));
  Alcotest.(check (list string)) "only baselined dead exports remain pre-ratchet" []
    (List.map Lint.to_text
       (List.filter (fun (f : Lint.finding) -> f.Lint.rule <> "dead-export") raw_pass));
  (* With the checked-in baseline — exactly what `dune build @lint` runs —
     the tree is clean. *)
  let findings = lint_tree ~baseline_file:"../devtools/lint/baseline.json" ~root ~dirs () in
  let errors = List.filter (fun (f : Lint.finding) -> f.Lint.severity = Lint.Error) findings in
  Alcotest.(check (list string)) "repo is lint-clean"
    [] (List.map Lint.to_text errors)

(* --- Baseline hygiene: the allowance may only shrink --------------------- *)

(* The ratchet rejects new findings, but nothing in `dune build @lint` stops
   the checked-in allowance itself from quietly growing back through a
   regenerated baseline. Pin a high-water mark per rule, as (entries, total
   allowance): both may only go down. Deliberately adding a hot-path
   allocation or an unused export means raising these numbers in the same
   change, which makes the regression explicit in review. A rule missing
   here may have no baseline entries at all. *)
let baseline_high_water =
  [ ("hotpath-allocation", (0, 0)); ("dead-export", (10, 10)); ("global-state", (1, 1)) ]

let test_baseline_high_water () =
  let src = In_channel.with_open_bin "../devtools/lint/baseline.json" In_channel.input_all in
  let base =
    match Baseline.of_string src with
    | Ok b -> b
    | Error e -> Alcotest.failf "cannot parse checked-in baseline: %s" e
  in
  let rule_of k = match String.split_on_char '|' k with r :: _ -> r | [] -> k in
  Hashtbl.iter
    (fun k _ ->
      Alcotest.(check bool)
        (Printf.sprintf "baseline entry %s has a high-water mark" k)
        true
        (List.mem_assoc (rule_of k) baseline_high_water))
    base;
  List.iter
    (fun (rule, (max_entries, max_allowance)) ->
      let entries, allowance =
        Hashtbl.fold
          (fun k n (e, a) -> if rule_of k = rule then (e + 1, a + n) else (e, a))
          base (0, 0)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s baseline entries %d <= high-water mark %d" rule entries max_entries)
        true (entries <= max_entries);
      Alcotest.(check bool)
        (Printf.sprintf "%s baseline allowance %d <= high-water mark %d" rule allowance
           max_allowance)
        true (allowance <= max_allowance))
    baseline_high_water;
  (* No zombie allowances: every baselined count must still be backed by
     that many live findings. A fixed finding whose allowance lingers would
     let an unrelated regression of the same key slip in unnoticed, so the
     fix must shrink the baseline in the same change. *)
  let root = ".." in
  let dirs =
    List.filter
      (fun d -> Sys.file_exists (Filename.concat root d))
      [ "lib"; "bin"; "bench"; "examples"; "devtools" ]
  in
  let live = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let k = Baseline.key f in
      Hashtbl.replace live k (1 + Scion_util.Table.find_or ~default:0 live k))
    (lint_tree ~root ~dirs ());
  Hashtbl.iter
    (fun k allowed ->
      let actual = Scion_util.Table.find_or ~default:0 live k in
      Alcotest.(check bool)
        (Printf.sprintf "allowance for %s (%d) backed by live findings (%d)" k allowed actual)
        true (allowed <= actual))
    base

(* --- Option hygiene: lib/'s optional parameters may only shrink --------- *)

(* Every optional parameter of every [val] in a lib/ interface, nested
   module signatures included, read from the parsed signature: one key
   per [?label] of the value's own arrow chain (labels inside a
   higher-order argument's type belong to that argument). *)
let rec optional_labels (t : Parsetree.core_type) =
  match t.ptyp_desc with
  | Ptyp_arrow (Optional l, _, rest) -> l :: optional_labels rest
  | Ptyp_arrow ((Nolabel | Labelled _), _, rest) -> optional_labels rest
  | Ptyp_poly (_, t) -> optional_labels t
  | _ -> []

let rec signature_options ~path (sg : Parsetree.signature) =
  List.concat_map
    (fun (item : Parsetree.signature_item) ->
      match item.psig_desc with
      | Psig_value vd ->
          List.map
            (fun l -> Printf.sprintf "%s.%s ?%s" path vd.pval_name.txt l)
            (optional_labels vd.pval_type)
      | Psig_module { pmd_name = { txt = Some m; _ }; pmd_type; _ } ->
          module_type_options ~path:(path ^ "." ^ m) pmd_type
      | Psig_recmodule mds ->
          List.concat_map
            (fun (md : Parsetree.module_declaration) ->
              match md.pmd_name.txt with
              | Some m -> module_type_options ~path:(path ^ "." ^ m) md.pmd_type
              | None -> [])
            mds
      | Psig_modtype { pmtd_name; pmtd_type = Some mty; _ } ->
          module_type_options ~path:(path ^ "." ^ pmtd_name.txt) mty
      | _ -> [])
    sg

and module_type_options ~path (mty : Parsetree.module_type) =
  match mty.pmty_desc with
  | Pmty_signature sg -> signature_options ~path sg
  | Pmty_functor (_, body) -> module_type_options ~path body
  | _ -> []

let rec interfaces dir =
  Array.to_list (Sys.readdir dir)
  |> List.sort String.compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then interfaces path
         else if Filename.check_suffix name ".mli" then [ path ]
         else [])

let lib_options root =
  List.concat_map
    (fun file ->
      let src = In_channel.with_open_bin file In_channel.input_all in
      match Lint.parse_ast ~file src with
      | Ok (Lint.Intf sg) ->
          let m = String.capitalize_ascii (Filename.remove_extension (Filename.basename file)) in
          signature_options ~path:m sg
      | Ok (Lint.Impl _) -> Alcotest.failf "%s parsed as an implementation" file
      | Error (line, msg) -> Alcotest.failf "%s:%d: %s" file line msg)
    (interfaces (Filename.concat root "lib"))

(* (distinct option keys, optional parameters), like [baseline_high_water]:
   both may only go down. A change that needs a new option raises these in
   the same change, which puts the wider surface in front of review. *)
let option_high_water = (76, 76)

let test_option_fixture () =
  with_temp_tree
    [
      ( "lib/x/m.mli",
        "val f : ?a:int -> b:int -> ?c:(?inner:int -> unit) -> unit -> unit\n\
         module N : sig val g : ?d:int -> unit -> unit end\n\
         val h : int -> int\n" );
    ]
    (fun root ->
      Alcotest.(check (list string))
        "top-level arrows only, nested modules included"
        [ "M.f ?a"; "M.f ?c"; "M.N.g ?d" ]
        (lib_options root))

let test_option_high_water () =
  let options = lib_options ".." in
  let keys = List.sort_uniq String.compare options in
  let max_keys, max_options = option_high_water in
  Alcotest.(check bool)
    (Printf.sprintf "%d distinct optional parameters <= high-water mark %d:\n%s"
       (List.length keys) max_keys (String.concat "\n" keys))
    true
    (List.length keys <= max_keys);
  Alcotest.(check bool)
    (Printf.sprintf "%d optional parameters <= high-water mark %d" (List.length options)
       max_options)
    true
    (List.length options <= max_options)

let () =
  Alcotest.run "scion_lint"
    [
      ( "rules",
        [
          Alcotest.test_case "determinism: clock" `Quick test_determinism_clock;
          Alcotest.test_case "determinism: random" `Quick test_determinism_random;
          Alcotest.test_case "determinism: hash order" `Quick test_determinism_hash_order;
          Alcotest.test_case "totality" `Quick test_totality;
          Alcotest.test_case "catch-all-exn" `Quick test_catch_all;
          Alcotest.test_case "float-eq" `Quick test_float_eq;
          Alcotest.test_case "missing-mli" `Quick test_missing_mli;
          Alcotest.test_case "ignored-result" `Quick test_ignored_result;
          Alcotest.test_case "naked-printf" `Quick test_naked_printf;
          Alcotest.test_case "unbounded-retry" `Quick test_unbounded_retry;
          Alcotest.test_case "global-state" `Quick test_global_state;
        ] );
      ( "engine",
        [
          Alcotest.test_case "suppression" `Quick test_suppression;
          Alcotest.test_case "bad directives" `Quick test_bad_directive;
          Alcotest.test_case "severity + parse errors" `Quick test_severity_and_parse_error;
          Alcotest.test_case "json reporter" `Quick test_json_reporter;
        ] );
      ( "passes",
        [
          Alcotest.test_case "rng: duplicate label across subsystems" `Quick
            test_rng_duplicate_label;
          Alcotest.test_case "rng: interface escape annotation" `Quick test_rng_interface_escape;
          Alcotest.test_case "rng: workload/fault stream race" `Quick test_rng_stream_race;
          Alcotest.test_case "hotpath: allocation two hops down" `Quick test_hotpath_allocation;
          Alcotest.test_case "telemetry: duplicate and dynamic names" `Quick test_telemetry_names;
          Alcotest.test_case "telemetry: registry file bijection" `Quick
            test_telemetry_registry_file;
          Alcotest.test_case "json link fields" `Quick test_json_link_fields;
          Alcotest.test_case "baseline ratchet" `Quick test_baseline_ratchet;
          Alcotest.test_case "phase 1 parses each file once" `Quick test_parse_once;
          Alcotest.test_case "dead-export: test-only caller reported" `Quick
            test_dead_export_test_only;
          Alcotest.test_case "dead-export: indirect uses count" `Quick
            test_dead_export_indirect_uses;
          Alcotest.test_case "dead-export: rule listed" `Quick test_dead_export_rule_listed;
          Alcotest.test_case "baseline ratchet: both passes" `Quick test_baseline_both_passes;
        ] );
      ( "repo",
        [
          Alcotest.test_case "whole tree lint-clean" `Quick test_repo_clean;
          Alcotest.test_case "baseline high-water mark" `Quick test_baseline_high_water;
          Alcotest.test_case "option high-water mark" `Quick test_option_high_water;
          Alcotest.test_case "option count fixture" `Quick test_option_fixture;
        ] );
    ]
