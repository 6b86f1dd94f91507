(** Golden evidence: one uniform [run] over every figure and table of
    EXPERIMENTS.md.

    Each run produces the figure's result table in canonical text (the
    same report output [bench/main.exe] prints, captured through
    {!Telemetry.Log.capture_report}, plus a headline footer rendered
    with {!Scion_util.Table.fmt_float}) and a telemetry snapshot scoped
    to that run ({!Telemetry.Export} JSONL: the instrumented network's
    stack-level series merged with one [exp.<figure>.<key>] gauge per
    headline). Both are byte-stable for the fixed seeds, which is what
    lets {!Golden} check them in and diff them on every test run.

    Figures sharing a dataset (Figures 5-7; Figures 8-10b) share one
    memoised experiment run per process. Evidence scale is reduced
    relative to the full EXPERIMENTS.md run — {!use_full_scale} switches
    to it — so the tier-1 suite stays fast; the paper's shape claims hold
    at this scale. *)

type t = {
  id : string;  (** Figure id, e.g. ["fig5"]. *)
  title : string;
  table : string;  (** Canonical result table ([test/golden/<id>/table.txt]). *)
  metrics : string;  (** JSONL snapshot ([test/golden/<id>/metrics.jsonl]). *)
}

val figures : (string * string) list
(** [(id, title)] for every artefact, in EXPERIMENTS.md summary-table
    order. *)

val ids : string list

val use_full_scale : unit -> unit
(** Switch every scale knob to the full EXPERIMENTS.md campaign (20 days,
    100 failure runs, 40 recovery trials, 30 pathmon trials, scaling up
    to 3000 ASes) — the [@golden-full] tier.
    Raises [Invalid_argument] if a scale-dependent dataset has already
    been memoised in this process, since that would mix scales. *)

val run : string -> t
(** [run id] regenerates the evidence for one figure. Dataset runs are
    memoised per process, so regenerating all of Figures 5-7 costs one
    connectivity campaign. Raises [Invalid_argument] on an unknown id. *)
