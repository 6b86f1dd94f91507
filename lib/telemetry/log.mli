(** The sanctioned report channel.

    [lib/] code must not print directly (scion-lint's [naked-printf] rule):
    experiment/report output — the tables and figures the harness emits —
    goes through {!out} (stdout by default, capturable). [lib/] has no
    diagnostics stream; failures are returned as values or counted in
    telemetry, so nothing can corrupt checked-in report output. *)

val out : ('a, unit, string, unit) format4 -> 'a
(** Report output: the replacement for [Printf.printf] in [lib/]. *)

val capture_report : (unit -> 'a) -> string * 'a
(** Run [f] with report output captured into a buffer; restores the
    previous sink afterwards (also on exceptions). *)
