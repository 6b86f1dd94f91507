(* Tier-1 golden-evidence suite: regenerate every figure's table and
   telemetry snapshot and byte-compare them against the checked-in
   goldens under test/golden/ (visible as ./golden from the dune
   sandbox). A mismatch fails with a unified diff; refresh deliberate
   changes with `dune exec bench/main.exe -- golden --promote`. *)

(* Under `dune runtest` the cwd is the sandboxed test/ directory and the
   goldens sit at ./golden; under a bare `dune exec test/test_golden.exe`
   from the repo root they sit at test/golden. *)
let golden_dir = if Sys.file_exists "golden" then "golden" else Filename.concat "test" "golden"
let golden_full_dir = Filename.concat (Filename.dirname golden_dir) "golden-full"

(* The evidence-tier session every per-figure case shares, so Figures 5-7
   cost one connectivity campaign as they do in `bench/main.exe golden`. *)
let session = Harness.Evidence.start ~full:false

(* Alcotest failure output should stay readable even when a whole table
   changes: keep the head of the diff and say how much was cut. *)
let truncate_diff ?(max_lines = 60) d =
  let lines = String.split_on_char '\n' d in
  if List.length lines <= max_lines then d
  else
    String.concat "\n" (List.filteri (fun i _ -> i < max_lines) lines)
    ^ Printf.sprintf "\n... (%d more lines)\n" (List.length lines - max_lines)

let check_figure ?(session = session) ?(dir = golden_dir) id () =
  List.iter
    (fun (f : Harness.Golden.file) ->
      match f.diff with
      | None -> ()
      | Some d ->
          Alcotest.failf "golden mismatch: %s\nrefresh with `%s` if the change is deliberate\n%s"
            f.path "dune exec bench/main.exe -- golden --promote" (truncate_diff d))
    (Harness.Golden.check_figure session ~dir id)

(* The scaling figure never reads the clock (the lint forbids it in lib/),
   so its wall-clock budget is enforced here: the shared session's first,
   unmemoised scaling run (the evidence-tier sweep up to 1000 ASes) must
   take under 60 s. *)
let check_scaling_budget () =
  (* scion-lint: allow determinism -- wall-clock timing of the bench harness itself, not simulated time *)
  let t0 = Unix.gettimeofday () in
  ignore (Harness.Evidence.run session "scaling");
  (* scion-lint: allow determinism -- wall-clock timing of the bench harness itself, not simulated time *)
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "scaling sweep under 60 s wall clock (took %.1f s)" dt) true
    (dt < 60.0);
  check_figure "scaling" ()

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
    Array.init 64 (fun _ -> Scion_util.Rng.int workload max_int)
  in
  let quiet = draws_after_replay [] in
  let faulted = draws_after_replay [ Sciera.Incidents.jan21; Sciera.Incidents.feb6 ] in
  Alcotest.(check (array int))
    "workload draws identical with and without injected faults" quiet faulted

(* A figure's bytes must not depend on what ran before it in the process:
   a fresh session running every figure in reverse order reproduces each
   checked-in table and metrics snapshot, after the shared session has
   already run them in figure order. *)
let test_reverse_order () =
  let fresh = Harness.Evidence.start ~full:false in
  List.iter (fun id -> check_figure ~session:fresh id ()) (List.rev Harness.Evidence.ids)

(* A full-tier session started after an evidence-tier run in the same
   process (of a scale-dependent dataset too) renders the full-tier
   goldens. *)
let test_full_after_evidence () =
  List.iter (fun id -> check_figure id ()) [ "table1"; "fig10c" ];
  let full = Harness.Evidence.start ~full:true in
  List.iter (fun id -> check_figure ~session:full ~dir:golden_full_dir id ()) [ "table1"; "survey" ]

(* The fig5 kept-ping gauges of each checked-in tier must count pings: the
   integers printed on the table's "pings kept:" line. *)
let test_fig5_kept_pings () =
  List.iter
    (fun dir ->
      let read name = In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all in
      let scion, ip =
        match
          List.find_map
            (fun line ->
              if String.starts_with ~prefix:"pings kept:" line then
                Some (Scanf.sscanf line "pings kept: %d SCION, %d IP" (fun s i -> (s, i)))
              else None)
            (String.split_on_char '\n' (read "fig5/table.txt"))
        with
        | Some counts -> counts
        | None -> Alcotest.failf "%s/fig5/table.txt has no \"pings kept:\" line" dir
      in
      let samples =
        match Telemetry.Export.of_json (read "fig5/metrics.jsonl") with
        | Ok samples -> samples
        | Error e -> Alcotest.failf "%s/fig5/metrics.jsonl: %s" dir e
      in
      let gauge key =
        match
          List.find_map
            (fun (s : Telemetry.Metrics.sample) ->
              match s.Telemetry.Metrics.value with
              | Telemetry.Metrics.Gauge v when String.equal s.Telemetry.Metrics.sample_name key ->
                  Some v
              | _ -> None)
            samples
        with
        | Some v -> v
        | None -> Alcotest.failf "%s/fig5: no %s gauge" dir key
      in
      Alcotest.(check (float 0.0)) (dir ^ " kept SCION pings") (float_of_int scion)
        (gauge "exp.fig5.kept_scion_pings");
      Alcotest.(check (float 0.0)) (dir ^ " kept IP pings") (float_of_int ip)
        (gauge "exp.fig5.kept_ip_pings"))
    [ golden_dir; golden_full_dir ]

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
          (fun id ->
            Alcotest.test_case id `Slow
              (if String.equal id "scaling" then check_scaling_budget else check_figure id))
          Harness.Evidence.ids );
      ( "headlines",
        [ Alcotest.test_case "fig5 kept pings match the table" `Quick test_fig5_kept_pings ] );
      ( "session",
        [
          Alcotest.test_case "reverse order matches goldens" `Slow test_reverse_order;
          Alcotest.test_case "full tier after evidence tier" `Slow test_full_after_evidence;
        ] );
    ]
