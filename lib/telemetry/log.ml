(* The sanctioned report-output channel. This module is the one place in
   lib/ allowed to touch stdout directly (scion-lint's naked-printf rule
   exempts lib/telemetry/): everything else routes experiment/report output
   through [out]. *)

let report_sink = ref (fun s -> print_string s)

(* Table.print is report output too: route it through the report sink so
   [capture_report] sees the table bodies the experiments emit, not just
   their Log.out lines. Scion_util cannot
   depend on telemetry, hence the indirection lives there and is pointed
   here once at link time. *)
let () = Scion_util.Table.set_printer (fun s -> !report_sink s)

let out fmt = Printf.ksprintf (fun s -> !report_sink s) fmt

let capture_report f =
  let buf = Buffer.create 256 in
  let saved = !report_sink in
  report_sink := Buffer.add_string buf;
  Fun.protect
    ~finally:(fun () -> report_sink := saved)
    (fun () ->
      let v = f () in
      (Buffer.contents buf, v))
