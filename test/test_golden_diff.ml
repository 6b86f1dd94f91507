(* Tier-1 golden-evidence suite, the quick cases: the figure-id
   coverage, the headline gauges of the checked-in fig5 golden, and the
   fault-injection RNG isolation every golden relies on. The per-figure
   checks are test/dune's golden_gen sessions and their diff rules. *)

(* Under `dune runtest` the cwd is the sandboxed test/ directory and the
   goldens sit at ./golden; under a bare `dune exec
   test/test_golden_diff.exe` from the repo root they sit at test/golden. *)
let golden_dir = if Sys.file_exists "golden" then "golden" else Filename.concat "test" "golden"

let test_all_figures_covered () =
  (* Every artefact of the EXPERIMENTS.md summary table (except the
     wall-clock micro benchmarks) has golden evidence, and test/dune
     holds the diff rules of exactly these ids. *)
  Alcotest.(check (list string))
    "figure ids"
    [
      "table1"; "fig3"; "fig4"; "table2"; "app_effort"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9";
      "fig10a"; "fig10b"; "fig10c"; "survey"; "isd_evolution"; "recovery"; "pathmon"; "scaling";
      "load"; "containment";
    ]
    Harness.Evidence.ids

(* The fault-injection determinism contract behind every golden: attaching
   (and fully running) the canned incident replays must leave the
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

(* The checked-in fig5 kept-ping gauges must count pings: the integers
   printed on the table's "pings kept:" line. *)
let test_fig5_kept_pings () =
  let dir = golden_dir in
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
    (gauge "exp.fig5.kept_ip_pings")

let () =
  Alcotest.run "golden-diff"
    [
      ( "diff",
        [
          Alcotest.test_case "all figures covered" `Quick test_all_figures_covered;
          Alcotest.test_case "injector RNG isolation" `Slow test_injector_rng_isolation;
        ] );
      ( "headlines",
        [ Alcotest.test_case "fig5 kept pings match the table" `Quick test_fig5_kept_pings ] );
    ]
