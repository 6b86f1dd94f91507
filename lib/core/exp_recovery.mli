(** The recovery figure: time-to-recover CDFs after a link failure on the
    connection's preferred path — self-healing stack (SCMP
    external-interface-down answers revoking cached paths at the daemon,
    plus capped-exponential re-probe of failed-over paths in the
    connection) versus a silent-timeout baseline.

    Each trial picks an AS pair and one fabric link of its best path,
    schedules a link outage through the {!Fault.Injector} (down at onset,
    repaired [12..40] s later, the repair re-originating beacons via
    {!Network.inject}), and drives a prober whose per-attempt costs
    are simulated milliseconds: a dead path costs the SCMP answer's
    partial-path RTT when healed, a full ack timeout when not. Recovery is
    the time from fault onset to the first successful send; afterwards the
    prober keeps polling to see whether it is back on the preferred path
    once the link is repaired.

    Determinism: the fault and sender streams are [Rng.of_label seed
    "fault"] / ["sender"] — independent of every workload stream, so the
    checked-in goldens are byte-stable and attaching the faults perturbs
    no other figure. *)

type mode = Healed | Baseline

type mode_result = {
  recovery_s : float array;  (** Per-trial time-to-recover, seconds. *)
  median_s : float;
  p90_s : float;
  returned_to_preferred : float;
      (** Fraction of trials back on the original best path at the end of
          the post-repair settle window. *)
}

type result = {
  trials : int;
  healed : mode_result;
  baseline : mode_result;
  revocations : int;  (** Daemon revocations learnt across healed trials. *)
  evicted_paths : int;  (** Cached paths evicted by those revocations. *)
  reprobes : int;  (** Parked paths re-probed by the healed connections. *)
}

val run : trials:int -> ?telemetry:Obs.t -> unit -> result
(** [trials] link failures. The seed is fixed at [0x5EC0_4E4F], with
    labelled fault and sender streams, so the figure is byte-reproducible.
    The network keeps 8 beacons per origin: every repair re-runs beaconing,
    so beaconing cost dominates the run. PCB verification is off: an honest
    run forges no beacon, so verifying changes no table, only the sigcache
    gauges, and it slowed the full golden tier 2.8-fold. With [?telemetry],
    publishes [exp.recovery.trials], [exp.recovery.revocations],
    [exp.recovery.evicted_paths], [exp.recovery.reprobes] and the
    [exp.recovery.time_to_recover_s{mode}] summaries. *)

val print_recovery : Buffer.t -> result -> unit
