(* Cross-seed invariance: the paper's Figure 8 shape claims must not be
   an artefact of the one seed the goldens pin. Harness.Evidence checks
   them on the pinned seed's dataset on every golden run; here the
   multipath epoch sweep reruns under two other seeds and asserts the same
   claims: every AS pair keeps at least two active paths, and the extreme
   pairs exceed 100. *)

let seeds = [ 42L; 1337L ]

let check_shape seed () =
  let r = Sciera.Exp_multipath.run ~seed ~telemetry:(Sciera.Obs.create ()) () in
  let _, _, best = r.Sciera.Exp_multipath.best_pair in
  Alcotest.(check bool)
    (Printf.sprintf "min_paths >= 2 (got %d)" r.Sciera.Exp_multipath.min_paths)
    true
    (r.Sciera.Exp_multipath.min_paths >= 2);
  Alcotest.(check bool) (Printf.sprintf "best pair > 100 paths (got %d)" best) true (best > 100);
  (* Some fully disjoint path choices must exist under every seed. *)
  Alcotest.(check bool)
    (Printf.sprintf "fully disjoint pairs exist (got %.3f)"
       r.Sciera.Exp_multipath.frac_fully_disjoint)
    true
    (r.Sciera.Exp_multipath.frac_fully_disjoint > 0.0)

let () =
  Alcotest.run "invariance"
    [
      ( "fig8 shape across seeds",
        List.map
          (fun seed -> Alcotest.test_case (Printf.sprintf "seed 0x%Lx" seed) `Slow (check_shape seed))
          seeds );
    ]
