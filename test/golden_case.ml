(* Shared by the golden suites (test_golden, test_golden_reverse,
   test_golden_diff): where the checked-in goldens live and how a
   mismatch fails a case. *)

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

(* Regenerate one figure in [session] and fail on any stale golden file or
   broken shape claim. *)
let check_figure session id =
  List.iter
    (fun (f : Harness.Golden.file) ->
      match f.diff with
      | None -> ()
      | Some d ->
          Alcotest.failf "golden mismatch: %s\nrefresh with `%s` if the change is deliberate\n%s"
            f.path "dune exec bench/main.exe -- golden --promote" (truncate_diff d))
    (Harness.Golden.check_figure session ~dir:golden_dir id)
