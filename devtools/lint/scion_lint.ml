(* scion-lint CLI.

   Usage: scion_lint [--root DIR] [--json] [--baseline FILE]
                     [--write-baseline FILE] [--write-telemetry-registry]
                     [--list-rules] [DIR ...]

   Runs the two-phase analyzer over every .ml/.mli under the given
   directories (default: lib bin bench examples devtools, relative to
   --root): the per-file rules, then the interprocedural passes
   (rng-stream-provenance, hotpath-allocation, telemetry-registry,
   dead-export) over the linked lib/ + bin/ call graph and the references
   of every analyzed file. With --baseline, findings already
   recorded in FILE are forgiven and only new ones fail (the ratchet);
   --write-baseline regenerates FILE from the current findings and
   --write-telemetry-registry regenerates devtools/lint/telemetry.registry
   from the live series names. Exit status: 0 when no error-severity
   findings remain, 1 when errors were found, 2 on usage errors. *)

module Lint = Scion_lint_lib.Lint
module Lint_rules = Scion_lint_lib.Lint_rules
module Driver = Scion_lint_lib.Driver
module Baseline = Scion_lint_lib.Baseline
module Ipa = Scion_lint_lib.Ipa

let usage () =
  prerr_endline
    "usage: scion_lint [--root DIR] [--json] [--baseline FILE] [--write-baseline FILE]\n\
    \                  [--write-telemetry-registry] [--list-rules] [DIR ...]";
  exit 2

let list_rules () =
  List.iter
    (fun (r : Lint.rule) ->
      Printf.printf "%-22s %-5s %s\n" r.Lint.id
        (Lint.severity_to_string r.Lint.severity)
        r.Lint.doc)
    Lint_rules.rules;
  List.iter (fun (id, doc) -> Printf.printf "%-22s %-5s %s\n" id "error" doc) Ipa.pass_docs

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let () =
  let root = ref "." in
  let json = ref false in
  let baseline = ref None in
  let write_baseline = ref None in
  let write_registry = ref false in
  let dirs = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--root" :: dir :: rest ->
        root := dir;
        parse rest
    | "--baseline" :: file :: rest ->
        baseline := Some file;
        parse rest
    | "--write-baseline" :: file :: rest ->
        write_baseline := Some file;
        parse rest
    | "--write-telemetry-registry" :: rest ->
        write_registry := true;
        parse rest
    | "--list-rules" :: _ ->
        list_rules ();
        exit 0
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' -> usage ()
    | dir :: rest ->
        dirs := dir :: !dirs;
        parse rest
  in
  (match Array.to_list Sys.argv with [] -> () | _ :: args -> parse args);
  let dirs =
    match List.rev !dirs with
    | [] -> List.filter (fun d -> Sys.file_exists (Filename.concat !root d)) Driver.default_dirs
    | ds -> ds
  in
  (* --write-baseline records the pre-ratchet findings, so it never reads
     the existing baseline. *)
  let baseline_file =
    match !write_baseline with Some _ -> None | None -> !baseline
  in
  let { Driver.an_findings = findings; an_summaries = summaries; _ } =
    Driver.analyze ?baseline_file ~rules:Lint_rules.rules ~root:!root ~dirs ()
  in
  (match !write_baseline with
  | Some file ->
      write_file file (Baseline.to_string findings);
      Printf.eprintf "scion-lint: wrote baseline (%d finding(s)) to %s\n" (List.length findings)
        file
  | None -> ());
  if !write_registry then begin
    let path = Filename.concat !root Driver.registry_rel in
    write_file path (Driver.registry_text summaries);
    Printf.eprintf "scion-lint: wrote %d series name(s) to %s\n"
      (List.length (Ipa.live_series summaries))
      path
  end;
  if !write_baseline <> None || !write_registry then exit 0;
  if !json then print_string (Lint.report_json findings)
  else begin
    print_string (Lint.report_text findings);
    Printf.eprintf "scion-lint: %d error(s), %d warning(s) across %s\n"
      (Lint.count Lint.Error findings) (Lint.count Lint.Warn findings)
      (String.concat " " dirs)
  end;
  exit (if Lint.has_errors findings then 1 else 0)
