(** Deterministic, simulated-clock-friendly metrics registry.

    The registry holds labelled counters, gauges, fixed-bucket histograms
    and quantile summaries. Handles are cheap mutable cells; registering
    the same (name, labels) pair twice returns the same handle, so
    instrumentation sites do not need to coordinate. Snapshots iterate in
    ascending (name, sorted-labels) order — never in hash order — so a
    snapshot of a seeded simulation is byte-stable across runs, which is
    what lets experiments check in their telemetry output.

    Nothing here reads a clock: time-derived metrics take their values from
    the caller (simulated time from [Netsim.Engine.now]). *)

type registry

type labels = (string * string) list
(** Label pairs. Stored sorted by key; duplicate keys are rejected with
    [Invalid_argument]. *)

val create : unit -> registry
val size : registry -> int
(** Number of registered (name, labels) series. *)

(** {1 Counters} — monotonically increasing integers. *)

type counter

val counter : registry -> ?labels:labels -> string -> counter
(** Get or create. Raises [Invalid_argument] if the series exists with a
    different metric kind, or on an empty name / duplicate label keys. *)

val inc : counter -> unit
val add : counter -> int -> unit
(** Raises [Invalid_argument] on a negative increment. *)

(** {1 Gauges} — last-written float values. *)

type gauge

val gauge : registry -> ?labels:labels -> string -> gauge
val set : gauge -> float -> unit

(** {1 Fixed-bucket histograms} *)

type histogram

val histogram : registry -> ?labels:labels -> buckets:float list -> string -> histogram
(** [buckets] are upper bounds, strictly increasing and non-empty
    ([Invalid_argument] otherwise). An observation lands in the first
    bucket whose bound is >= the value, or in the overflow bucket. *)

val observe : histogram -> float -> unit

(** {1 Quantile summaries} — keep every sample; snapshots export the 50th,
    90th and 99th percentiles, computed exactly as
    {!Scion_util.Stats.percentile}. *)

type summary

val summary : registry -> ?labels:labels -> string -> summary
val record : summary -> float -> unit

(** {1 Snapshots} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      upper : float array;  (** bucket upper bounds *)
      counts : int array;  (** per-bucket observation counts *)
      overflow : int;
      count : int;
      sum : float;
    }
  | Summary of {
      count : int;
      sum : float;
      quantiles : (float * float) array;  (** (percentile, value) for 50, 90, 99 *)
    }

type sample = { sample_name : string; sample_labels : labels; value : value }

val snapshot : registry -> sample list
(** Point-in-time copy of every series, in ascending (name, labels) order.
    Deterministic for deterministic instrumentation. *)
