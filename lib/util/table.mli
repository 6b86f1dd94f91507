(** Table helpers: deterministic hash-table iteration for the simulator, and
    plain-text table rendering for the experiment harness output.

    {1 Deterministic iteration}

    [Hashtbl.iter]/[Hashtbl.fold] visit bindings in an order that depends on
    the hash seed and insertion history, so any simulation-visible use of
    them can leak nondeterminism into event scheduling and experiment
    output. The helpers below visit the current bindings in ascending key
    order (by [cmp], default {!Stdlib.compare}) instead; [scion-lint]'s
    [determinism] rule points offenders here. *)

val iter_sorted : ?cmp:('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [iter_sorted f t] applies [f] to the current binding of every key of
    [t], in ascending key order. Unlike [Hashtbl.iter] it visits each key
    once, even when older shadowed bindings exist. *)

val fold_sorted : ?cmp:('k -> 'k -> int) -> ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) Hashtbl.t -> 'acc -> 'acc
(** [fold_sorted f t init] folds [f] over the current bindings of [t] in
    ascending key order. Argument order matches [Hashtbl.fold] so it is a
    drop-in replacement. *)

val find_or : default:'v -> ('k, 'v) Hashtbl.t -> 'k -> 'v
(** [find_or ~default t k] is the binding of [k], or [default] when [k] is
    unbound — a total alternative to [Hashtbl.find]. *)

(** {1 Text rendering} *)

val render : header:string list -> rows:string list list -> string
(** [render ~header ~rows] returns an aligned ASCII table. Every row must
    have the same arity as the header. *)

val fmt_ms : float -> string
(** Milliseconds with one decimal, e.g. ["149.8"]. *)

val fmt_pct : float -> string
(** Fraction rendered as a percentage with one decimal, e.g. ["23.7%"]. *)

val fmt_ratio : float -> string
(** Ratio with three decimals, e.g. ["0.931"]. *)

val fmt_float : float -> string
(** The canonical free-form float format of the evidence harness: [%.6g].
    Everything that renders a raw statistic ({!Stats.percentile} outputs,
    headline gauges) must use this one format so checked-in goldens never
    churn from printf drift. *)
