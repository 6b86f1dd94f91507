(** The pathmon figure: adaptive (live-quality-driven) versus static path
    selection under {e soft} degradation — latency windows and loss bursts
    that still deliver packets, so hard-down failover never fires.

    Each trial picks an AS pair, injects a {!Fault.Scenario} latency
    window or loss burst on a link of the preferred path that the
    second-best path avoids, and drives a polling workload in two modes:
    {b adaptive} (an SCMP-echo {!Pathmon.Prober} over the candidate set
    feeds per-path estimators in the daemon's shared {!Pathmon.Cache}, and
    the connection's {!Pathmon.Selector} soft-fails over past hysteresis)
    and {b static} (the dial-time ranking, the pre-pathmon stack). The
    figure reports time-in-degraded-path and in-window latency inflation
    per mode; the golden pins that adaptive selection strictly reduces the
    median time-in-degraded-path.

    Determinism: fault, probe and sender streams are label-derived
    ([Rng.of_label seed "fault"] / ["pathmon.probe"] / ["sender"]) and
    probes sample link RTTs through {!Network.scmp_probe} with the probe
    stream — never the workload stream — so the checked-in goldens are
    byte-stable and attaching probers perturbs no other figure. *)

type mode = Adaptive | Static

type mode_result = {
  degraded_s : float array;  (** Per-trial time spent on a degraded path, s. *)
  median_degraded_s : float;
  p90_degraded_s : float;
  inflation : float array;  (** Per-trial mean in-window RTT / pre-fault RTT. *)
  median_inflation : float;
  returned_to_preferred : float;
      (** Fraction of trials back on the original best path at the end of
          the post-recovery settle window. *)
  soft_switches : int;  (** Selector-driven path changes (adaptive only). *)
  probes : int;  (** SCMP echoes issued by the probers (adaptive only). *)
}

type result = { trials : int; adaptive : mode_result; static_ : mode_result }

val run : trials:int -> ?telemetry:Obs.t -> unit -> result
(** [trials] soft degradations. The seed is fixed at [0x9A7A_40BF], with
    labelled fault, probe and sender streams, so the figure is
    byte-reproducible. The network keeps 8 beacons per origin, which keeps
    the per-trial beaconing cheap. PCB verification is off: an honest run
    forges no beacon, so verifying changes no table, only the sigcache
    gauges, and it slowed the full golden tier 2.8-fold. With [?telemetry],
    publishes [exp.pathmon.trials], [exp.pathmon.soft_switches],
    [exp.pathmon.probes], the [exp.pathmon.time_in_degraded_s{mode}] and
    [exp.pathmon.latency_inflation{mode}] summaries, plus the aggregate
    [pathmon.prober.*] / [pathmon.selector.*] series of the probers and
    selectors themselves. *)

val print_pathmon : Buffer.t -> result -> unit
