(* Tier-1 golden-evidence suite: regenerate every figure's table and
   telemetry snapshot and byte-compare them against the checked-in
   goldens under test/golden/ (visible as ./golden from the dune
   sandbox). A mismatch fails with a unified diff; refresh deliberate
   changes with `dune exec bench/main.exe -- golden --promote`. *)

(* Under `dune runtest` the cwd is the sandboxed test/ directory and the
   goldens sit at ./golden; under a bare `dune exec test/test_golden.exe`
   from the repo root they sit at test/golden. *)
let golden_dir = if Sys.file_exists "golden" then "golden" else Filename.concat "test" "golden"

(* Alcotest failure output should stay readable even when a whole table
   changes: keep the head of the diff and say how much was cut. *)
let truncate_diff ?(max_lines = 60) d =
  let lines = String.split_on_char '\n' d in
  if List.length lines <= max_lines then d
  else
    String.concat "\n" (List.filteri (fun i _ -> i < max_lines) lines)
    ^ Printf.sprintf "\n... (%d more lines)\n" (List.length lines - max_lines)

let check_figure id () =
  List.iter
    (fun (f : Harness.Golden.file) ->
      match f.diff with
      | None -> ()
      | Some d ->
          Alcotest.failf "golden mismatch: %s\nrefresh with `%s` if the change is deliberate\n%s"
            f.path "dune exec bench/main.exe -- golden --promote" (truncate_diff d))
    (Harness.Golden.check_figure ~dir:golden_dir id)

(* The diff rendering itself: a one-line perturbation must show up as a
   focused -/+ hunk, not an opaque blob. *)
let test_unified_diff_readable () =
  (match Harness.Diff.unified "a\nb\nc\nd\ne\n" "a\nb\nX\nd\ne\n" with
  | None -> Alcotest.fail "differing strings reported equal"
  | Some d ->
      let has needle =
        List.exists (String.equal needle) (String.split_on_char '\n' d)
      in
      Alcotest.(check bool) "deleted line" true (has "-c");
      Alcotest.(check bool) "added line" true (has "+X");
      Alcotest.(check bool) "context kept" true (has " b"));
  Alcotest.(check bool) "equal strings yield no diff" true
    (Harness.Diff.unified "same\n" "same\n" = None);
  match Harness.Diff.unified "x" "x\n" with
  | Some _ -> ()
  | None -> Alcotest.fail "missing trailing newline not detected"

let test_all_figures_covered () =
  (* Every artefact of the EXPERIMENTS.md summary table (except the
     wall-clock micro benchmarks) has golden evidence. *)
  Alcotest.(check (list string))
    "figure ids"
    [
      "table1"; "fig3"; "fig4"; "table2"; "app_effort"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9";
      "fig10a"; "fig10b"; "fig10c"; "survey"; "isd_evolution"; "recovery"; "pathmon"; "scaling";
      "load"; "containment";
    ]
    Harness.Evidence.ids

(* The fault-injection determinism contract behind every golden above:
   attaching (and fully running) the canned incident replays must leave the
   network's workload RNG stream byte-identical — fault scenarios elaborate
   against their own labelled stream, and the injector draws nothing. *)
let test_injector_rng_isolation () =
  let draws_after_replay scenarios =
    let net = Sciera.Network.create ~per_origin:4 ~verify_pcbs:false () in
    List.iter
      (fun scenario ->
        let engine = Netsim.Engine.create () in
        let rng = Scion_util.Rng.of_label 99L "fault" in
        let inj = Sciera.Network.inject net ~engine ~rng scenario in
        Netsim.Engine.run engine;
        Alcotest.(check bool) "all scheduled ops fired" true
          (Fault.Injector.fired inj
          = List.length (Fault.Injector.events inj)))
      scenarios;
    let workload = Sciera.Network.rng net in
    Array.init 64 (fun _ -> Scion_util.Rng.next workload)
  in
  let quiet = draws_after_replay [] in
  let faulted = draws_after_replay [ Sciera.Incidents.jan21; Sciera.Incidents.feb6 ] in
  Alcotest.(check (array int64))
    "workload draws identical with and without injected faults" quiet faulted

(* Switching to full scale after a scale-dependent dataset has been
   memoised would mix scales in one process, so it must be refused. *)
let test_full_scale_after_memo () =
  ignore (Harness.Evidence.run "containment");
  Alcotest.check_raises "use_full_scale refused"
    (Invalid_argument "Evidence.use_full_scale: a dataset is already memoised at evidence scale")
    Harness.Evidence.use_full_scale

let () =
  Alcotest.run "golden"
    [
      ( "diff",
        [
          Alcotest.test_case "unified diff readable" `Quick test_unified_diff_readable;
          Alcotest.test_case "all figures covered" `Quick test_all_figures_covered;
          Alcotest.test_case "injector RNG isolation" `Slow test_injector_rng_isolation;
        ] );
      ( "evidence",
        List.map
          (fun (id, _title) -> Alcotest.test_case id `Slow (check_figure id))
          Harness.Evidence.figures );
      ( "scale",
        [
          Alcotest.test_case "full scale refused once memoised" `Slow test_full_scale_after_memo;
        ] );
    ]
