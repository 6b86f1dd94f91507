(** Minimal line-based unified diff.

    Powers the golden-evidence regression messages: when a regenerated
    table or metrics snapshot stops matching its checked-in golden, the
    failure shows [-expected]/[+actual] hunks instead of two opaque
    blobs. Missing trailing newlines are made visible the way diff(1)
    annotates them, so byte equality and line equality coincide. *)

val unified : ?label_a:string -> ?label_b:string -> string -> string -> string option
(** [unified a b] is [None] when the strings are byte-identical, and
    [Some diff] otherwise — a unified diff with 3 kept lines of context
    around each change and a [--- label_a] / [+++ label_b]
    header. Worst-case inputs degrade to a single replace hunk rather
    than an unbounded LCS table. *)
