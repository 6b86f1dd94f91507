(* Checked-in golden evidence: compare or promote test/golden/<figure>/
   {table.txt,metrics.jsonl} against freshly regenerated Evidence. *)

module Export = Telemetry.Export

type file = { figure : string; path : string; diff : string option }

let table_basename = "table.txt"
let metrics_basename = "metrics.jsonl"
let promote_hint = "dune exec bench/main.exe -- golden --promote"

let paths ~dir id =
  let d = Filename.concat dir id in
  (Filename.concat d table_basename, Filename.concat d metrics_basename)

let read_file path =
  if Sys.file_exists path then Some (In_channel.with_open_bin path In_channel.input_all)
  else None

let check_figure session ~dir id =
  let e = Evidence.run session id in
  let against path fresh =
    match read_file path with
    | None ->
        {
          figure = id;
          path;
          diff = Some (Printf.sprintf "missing golden file %s (run `%s`)\n" path promote_hint);
        }
    | Some golden ->
        {
          figure = id;
          path;
          diff = Diff.unified ~label_a:(path ^ " (golden)") ~label_b:"regenerated" golden fresh;
        }
  in
  let table_path, metrics_path = paths ~dir id in
  [ against table_path e.Evidence.table; against metrics_path e.Evidence.metrics ]

let stale files = List.filter (fun f -> Option.is_some f.diff) files

type status = Created | Updated | Unchanged

let status_to_string = function
  | Created -> "created"
  | Updated -> "updated"
  | Unchanged -> "unchanged"

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    let parent = Filename.dirname path in
    if not (String.equal parent path) then mkdir_p parent;
    Sys.mkdir path 0o755
  end

let promote session ~dir =
  List.concat_map
    (fun id ->
      let e = Evidence.run session id in
      mkdir_p (Filename.concat dir id);
      let write path contents =
        let status =
          match read_file path with
          | Some old when String.equal old contents -> Unchanged
          | Some _ -> Updated
          | None -> Created
        in
        (match status with
        | Unchanged -> ()
        | Created | Updated -> Export.write_file path contents);
        (path, status)
      in
      let table_path, metrics_path = paths ~dir id in
      [ write table_path e.Evidence.table; write metrics_path e.Evidence.metrics ])
    Evidence.ids
