(* Tier-1 golden-evidence suite, forward order: regenerate every figure's
   table and telemetry snapshot and byte-compare them against the
   checked-in goldens under test/golden/ (visible as ./golden from the
   dune sandbox). A mismatch fails with a unified diff; refresh deliberate
   changes with `dune exec bench/main.exe -- golden --promote`. The
   reverse-order session and the diff/headline cases are separate
   executables (test_golden_reverse, test_golden_diff), so dune runs them
   side by side. *)

(* The session every per-figure case shares, so Figures 5-7 cost one
   connectivity campaign as they do in `bench/main.exe golden`. *)
let session = Harness.Evidence.start ()

(* The scaling figure never reads the clock (the lint forbids it in lib/),
   so its wall-clock budget is enforced here: the shared session's first,
   unmemoised scaling run (the sweep up to 3000 ASes) must take under
   60 s. *)
let check_scaling_budget () =
  (* scion-lint: allow determinism -- wall-clock timing of the bench harness itself, not simulated time *)
  let t0 = Unix.gettimeofday () in
  ignore (Harness.Evidence.run session "scaling");
  (* scion-lint: allow determinism -- wall-clock timing of the bench harness itself, not simulated time *)
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "scaling sweep under 60 s wall clock (took %.1f s)" dt) true
    (dt < 60.0);
  Golden_case.check_figure session "scaling"

let () =
  Alcotest.run "golden"
    [
      ( "evidence",
        List.map
          (fun id ->
            Alcotest.test_case id `Slow
              (if String.equal id "scaling" then check_scaling_budget
               else fun () -> Golden_case.check_figure session id))
          Harness.Evidence.ids );
    ]
