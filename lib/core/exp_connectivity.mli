(** Section 5.4 — the connectivity analysis: Figures 5, 6 and 7.

    Runs the multiping campaign over the simulated 20-day window, applies
    the paper's exclusion rule, and computes:
    - Figure 5: the CDFs of SCION and IP ping RTTs (with median and p90);
    - Figure 6: the CDF of per-AS-pair mean RTT ratio SCION/IP, plus the
      identified outlier groups;
    - Figure 7: the SCION/IP RTT ratio over time (per half-day bucket). *)

type pair_ratio = {
  pr_src : Scion_addr.Ia.t;
  pr_dst : Scion_addr.Ia.t;
  ratio : float;  (** mean SCION RTT / mean IP RTT over the window. *)
}

type result = {
  dataset : Multiping.dataset;  (** After exclusion. *)
  raw_scion_pings : int;
  raw_ip_pings : int;
  scion_rtts : float array;
  ip_rtts : float array;
  scion_median : float;
  ip_median : float;
  scion_p90 : float;
  ip_p90 : float;
  pair_ratios : pair_ratio list;
  frac_pairs_faster_on_scion : float;  (** Paper: ~38%. *)
  frac_pairs_inflation_le_25pct : float;  (** Paper: ~80%. *)
  timeseries : (float * float) list;  (** (day, median pair ratio). *)
}

val run : telemetry:Obs.t -> result
(** The paper's {!Incidents.window_days}-long multiping campaign with
    {!Multiping.default_config}. The network uses
    {!Network.create}'s default seed, so Figures 5-7 come from the same
    fabric draws as the other SCIERA figures. It keeps 8 beacons per origin,
    which bounds the cost of the re-beaconing at every incident change point
    of the campaign. PCB verification is off: an honest run forges no
    beacon, so verifying changes no table, only the sigcache gauges, and it
    slowed the golden suite 2.8-fold. [~telemetry] threads an
    observability bundle through the underlying {!Network.create}, so the
    campaign's router/beacon/link counters land in the bundle's registry —
    the per-figure metrics evidence the golden harness checks in. Attaching
    telemetry never changes RNG draw order. *)

val print_fig5 : Buffer.t -> result -> unit
val print_fig6 : Buffer.t -> result -> unit
val print_fig7 : Buffer.t -> result -> unit
