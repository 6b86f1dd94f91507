(** Descriptive statistics used by the measurement analytics and the
    experiment harness: percentiles, CDFs and boxplot summaries. *)

val mean : float array -> float
(** Arithmetic mean. Requires a non-empty array. *)

val min_max : float array -> float * float
(** Smallest and largest element. Requires a non-empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] returns the [p]-th percentile ([0. <= p <= 100.]) using
    linear interpolation between closest ranks. The input need not be
    sorted. Requires a non-empty array. *)

val median : float array -> float

type boxplot = {
  low_whisker : float;
  q1 : float;
  med : float;
  q3 : float;
  high_whisker : float;
}

val boxplot : float array -> boxplot
(** Five-number summary with whiskers at the 5th/95th percentile, matching
    how Figure 4 of the paper is drawn. *)

type cdf = (float * float) list
(** Sorted [(value, cumulative_fraction)] points; fractions end at 1. *)

val cdf : float array -> cdf
(** Empirical CDF of the samples. *)

val resample_cdf : cdf -> int -> cdf
(** [resample_cdf c n] reduces a CDF to at most [n] evenly spaced points,
    keeping the first and last; used to print compact figure series. *)
