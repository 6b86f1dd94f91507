(** Snapshot exporters.

    The JSON format is line-oriented: a header line
    [{"schema":"sciera.telemetry/1"}] followed by one canonical JSON object
    per metric, in the sorted order of {!Metrics.snapshot}. Identical
    registries serialise byte-identically, so experiment telemetry can be
    diffed and checked in. *)

val to_json : Metrics.registry -> string
(** Serialise a snapshot of the registry. *)

val samples_to_json : Metrics.sample list -> string
(** Serialise an explicit sample list (e.g. a filtered snapshot). *)

val of_json : string -> (Metrics.sample list, string) result
(** Parse a snapshot produced by {!to_json}; rejects unknown schemas. *)

val render : Metrics.registry -> string
(** Aligned plain-text table of every series — the [scion-top] view. *)

val write_file : string -> string -> unit
(** [write_file path contents] writes (truncating) [contents] to [path]. *)

(** {1 Snapshot diffing}

    The [scion-top --diff] view: compare two parsed snapshots series by
    series — what changed between two days of a simulated deployment, or
    between a golden snapshot and a regenerated one. *)

type change =
  | Added of Metrics.sample  (** Series only present in the second snapshot. *)
  | Removed of Metrics.sample  (** Series only present in the first. *)
  | Changed of Metrics.sample * Metrics.sample  (** (before, after) values differ. *)

val diff_samples : Metrics.sample list -> Metrics.sample list -> change list
(** [diff_samples before after] joins the two sample lists on
    (name, labels) and reports every difference, in ascending series
    order. Unchanged series are omitted. *)

val render_diff : change list -> string
(** Aligned table of the changes (counter deltas rendered as [+n]);
    ["no changes\n"] when the list is empty. *)
