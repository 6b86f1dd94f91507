(** Section 5.5 — multipath quality: Figures 8, 9, 10a and 10b.

    Over the measurement window's control-plane epochs, for the nine ASes
    of Figure 8:
    - Figure 8: the highest number of {e active} paths (known to the
      control plane and delivering on the data plane) per AS pair;
    - Figure 9: the median deviation from that maximum over time
      (epoch-duration-weighted);
    - Figure 10a: the CDF of latency inflation d2/d1 between the best and
      second-best RTT paths;
    - Figure 10b: the CDF of pairwise path disjointness. *)

type result = {
  ases : Scion_addr.Ia.t list;  (** Figure 8 row/column order. *)
  max_paths : int array array;  (** [src][dst]. *)
  median_deviation : int array array;
  inflation_cdf : Scion_util.Stats.cdf;
  frac_inflation_close_to_1 : float;  (** d2/d1 <= 1.05; paper: ~40%. *)
  frac_inflation_le_1_2 : float;  (** Paper: ~80%. *)
  disjointness_cdf : Scion_util.Stats.cdf;
  frac_fully_disjoint : float;  (** Paper: ~30%. *)
  frac_disjointness_ge_0_7 : float;  (** Paper: ~80%. *)
  min_paths : int;  (** Smallest max-path count across pairs; paper: >= 2. *)
  best_pair : Scion_addr.Ia.t * Scion_addr.Ia.t * int;  (** Paper: > 100. *)
}

val run : ?seed:int64 -> telemetry:Obs.t -> unit -> result
(** [?seed] defaults to {!Network.create}'s; the invariance tests sweep it.
    The network keeps 16 beacons per origin, because Figure 8 counts paths
    and a smaller store would cap the counts. PCB verification is off: an
    honest run forges no beacon, so verifying changes no table, only the
    sigcache gauges, and it slowed the golden suite 2.8-fold.
    [~telemetry] instruments the underlying network (see
    {!Exp_connectivity.run}); the epoch sweep's control-plane and data-plane
    counters become the figure's checked-in metrics evidence. *)

val print_fig8 : Buffer.t -> result -> unit
val print_fig9 : Buffer.t -> result -> unit
val print_fig10a : Buffer.t -> result -> unit
val print_fig10b : Buffer.t -> result -> unit
