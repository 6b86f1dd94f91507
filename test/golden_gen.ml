(* Regenerates one golden session: `golden_gen.exe [--reverse] DIR` runs
   every figure of Harness.Evidence.ids through one fresh session, in
   summary-table order or reversed, and writes DIR/<id>/table.txt and
   DIR/<id>/metrics.jsonl. test/dune diffs each file against
   test/golden/<id>/ and `dune promote` copies it back. A broken shape
   claim, or a session's first (unmemoised) scaling run taking 60 s of
   wall time or more, prints its reason and exits 1: the rule fails, dune
   keeps none of its files, and promoting cannot clear it. *)

let () =
  let ids, dir =
    match Sys.argv with
    | [| _; dir |] -> (Harness.Evidence.ids, dir)
    | [| _; "--reverse"; dir |] -> (List.rev Harness.Evidence.ids, dir)
    | _ ->
        prerr_endline "usage: golden_gen.exe [--reverse] DIR";
        exit 2
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let session = Harness.Evidence.start () in
  let failures =
    List.concat_map
      (fun id ->
        (* scion-lint: allow determinism -- wall-clock timing of the test harness itself, not simulated time *)
        let t0 = Unix.gettimeofday () in
        let e = Harness.Evidence.run session id in
        (* scion-lint: allow determinism -- wall-clock timing of the test harness itself, not simulated time *)
        let dt = Unix.gettimeofday () -. t0 in
        let d = Filename.concat dir id in
        let write name contents =
          Out_channel.with_open_bin (Filename.concat d name) (fun oc ->
              Out_channel.output_string oc contents)
        in
        Sys.mkdir d 0o755;
        write "table.txt" e.Harness.Evidence.table;
        write "metrics.jsonl" e.Harness.Evidence.metrics;
        List.map (Printf.sprintf "%s: %s" id) e.Harness.Evidence.failed_claims
        @
        if String.equal id "scaling" && dt >= 60.0 then
          [ Printf.sprintf "scaling: sweep under 60 s wall clock (took %.1f s)" dt ]
        else [])
      ids
  in
  List.iter prerr_endline failures;
  if failures <> [] then exit 1
