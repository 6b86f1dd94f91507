(* Tier-1 golden-evidence suite, reverse order: a figure's bytes must not
   depend on what ran before it in the process. A fresh session running
   every figure in reverse order reproduces each checked-in table and
   metrics snapshot that test_golden checks in figure order. *)

let test_reverse_order () =
  let fresh = Harness.Evidence.start () in
  List.iter (Golden_case.check_figure fresh) (List.rev Harness.Evidence.ids)

let () =
  Alcotest.run "golden-reverse"
    [
      ( "session",
        [ Alcotest.test_case "reverse order matches goldens" `Slow test_reverse_order ] );
    ]
