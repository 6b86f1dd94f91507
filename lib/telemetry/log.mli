(** Diagnostics and the sanctioned report channel.

    [lib/] code must not print directly (scion-lint's [naked-printf] rule):
    diagnostics go through {!debug}/{!warn} (stderr by default; [debug]
    lines are dropped), and experiment/report output — the tables and
    figures the harness emits — goes through {!out} (stdout by default,
    never filtered). Both streams can be captured. Keeping them separate
    means diagnostics never corrupt checked-in report output. *)

val debug : ('a, unit, string, unit) format4 -> 'a
val warn : ('a, unit, string, unit) format4 -> 'a

val out : ('a, unit, string, unit) format4 -> 'a
(** Report output: the replacement for [Printf.printf] in [lib/]. *)

val capture_report : (unit -> 'a) -> string * 'a
(** Run [f] with report output captured into a buffer; restores the
    previous sink afterwards (also on exceptions). *)

val capture_diagnostics : (unit -> 'a) -> string * 'a
