(** Golden evidence: the only figure driver, one uniform [run] over every
    figure and table of EXPERIMENTS.md.

    Each run produces the figure's result table in canonical text (the
    report the experiment appends to a buffer, plus a headline footer in
    which integral counts print exactly and every other value with
    {!Scion_util.Table.fmt_float}) — exactly what [bench/main.exe <id>]
    prints — and a telemetry snapshot scoped to that run
    ({!Telemetry.Export} JSONL: the instrumented network's stack-level
    series merged with one [exp.<figure>.<key>] gauge per headline). Both
    are byte-stable for the fixed seeds, which is what lets them be
    checked in under [test/golden/] and diffed by dune on every test run
    ([test/golden_gen.ml] writes them; [dune promote] refreshes the
    goldens). The figure's shape claims are evaluated from the same typed
    result as its headline, and a golden session fails on any that
    breaks.

    Runs go through a {!session}, which memoises the datasets of the one
    EXPERIMENTS.md campaign: figures sharing a dataset (Figures 5-7;
    Figures 8-10b) share one experiment run per session, and two sessions
    share nothing, so a figure's bytes do not depend on what ran before
    it. *)

type t = {
  id : string;  (** Figure id, e.g. ["fig5"]. *)
  title : string;
  table : string;  (** Canonical result table ([test/golden/<id>/table.txt]). *)
  metrics : string;  (** JSONL snapshot ([test/golden/<id>/metrics.jsonl]). *)
  failed_claims : string list;
      (** The figure's shape claims that this run breaks, by name; empty
          when the run carries every claim EXPERIMENTS.md makes for it. *)
}

val ids : string list
(** Every artefact id, in EXPERIMENTS.md summary-table order. *)

type session
(** One campaign's memoised datasets. *)

val start : unit -> session
(** A fresh session over the full EXPERIMENTS.md campaign (20 days, 100
    failure runs, 40 recovery trials, 30 pathmon trials, scaling up to
    3000 ASes). Nothing runs until a figure needs it. *)

val run : session -> string -> t
(** [run session id] regenerates the evidence for one figure. Dataset runs
    are memoised in [session], so regenerating all of Figures 5-7 costs one
    connectivity campaign. Raises [Invalid_argument] on an unknown id. *)
