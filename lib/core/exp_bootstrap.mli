(** Section 5.1, Figure 4 — end-host bootstrapping performance across
    Windows/Linux/macOS and all hinting mechanisms, plus Table 2
    (Appendix A), the mechanism-availability matrix. *)

type os_summary = {
  os : Scion_endhost.Bootstrap.os;
  hint : Scion_util.Stats.boxplot;
  config : Scion_util.Stats.boxplot;
  total : Scion_util.Stats.boxplot;
}

type result = {
  per_os : os_summary list;
  runs_per_mechanism : int;
  all_medians_under_ms : float;
}

val run : ?runs:int -> ?telemetry:Obs.t -> unit -> result
(** [runs] bootstraps per mechanism and OS (default 30, the paper's count).
    The seed is fixed at [0xB007], one labelled stream per OS, so Figure 4
    is byte-reproducible. No network is built, so there are no beacon stores
    and nothing to verify. [?telemetry] records every timing sample into
    [exp.fig4.latency_ms{os,stage}] summaries — this experiment runs no
    network, so the distribution is the figure's metrics evidence. *)

val print_fig4 : Buffer.t -> result -> unit
val print_table2 : Buffer.t -> unit
