(* Diagnostics plus the sanctioned report-output channel. This module is
   the one place in lib/ allowed to touch stdout / stderr directly
   (scion-lint's naked-printf rule exempts lib/telemetry/): everything else
   routes diagnostics through [debug]/[warn] and experiment/report output
   through [out]. *)

(* Diagnostics default to stderr so they interleave with, but do not
   corrupt, report output on stdout. *)
let diag_sink = ref (fun line -> prerr_string line)
let report_sink = ref (fun s -> print_string s)

(* Table.print is report output too: route it through the report sink so
   [capture_report] sees the table bodies the experiments emit, not just
   their Log.out lines. Scion_util cannot
   depend on telemetry, hence the indirection lives there and is pointed
   here once at link time. *)
let () = Scion_util.Table.set_printer (fun s -> !report_sink s)

(* Diagnostics below warning level are dropped. *)
let debug fmt = Printf.ksprintf ignore fmt
let warn fmt = Printf.ksprintf (fun msg -> !diag_sink (Printf.sprintf "[warn] %s\n" msg)) fmt

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

let capture_diagnostics f =
  let buf = Buffer.create 256 in
  let saved = !diag_sink in
  diag_sink := Buffer.add_string buf;
  Fun.protect
    ~finally:(fun () -> diag_sink := saved)
    (fun () ->
      let v = f () in
      (Buffer.contents buf, v))
