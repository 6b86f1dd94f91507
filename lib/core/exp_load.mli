(** The load figure: the flow-level traffic engine ({!Traffic.Flow} /
    {!Traffic.Workload}) driven over capacity-armed fabrics, sweeping the
    offered-load multiplier and comparing two endpoint strategies on the
    byte-identical arrival sequence:

    - ["scion-mp"] — multipath-capable endpoints place each flow on the
      candidate path with the most bottleneck headroom
      ({!Scion_endhost.Pan.pick_flow_path} over
      {!Network.path_headroom_bps});
    - ["ip-sp"] — single-path-IP endpoints always use the statically best
      path, the way a BGP-routed host would.

    Hybrid fidelity: a foreground application is additionally simulated
    packet by packet ({!Netsim.Net.transmit}) over the loaded links and
    reports the queueing delay and tail drops the fluid background
    creates. Runs at two scales — the 29-AS Figure-1 mesh and a generated
    [topogen] mesh. *)

type arm = Multipath | Singlepath

val arm_name : arm -> string
(** ["scion-mp"] / ["ip-sp"]. *)

type cell = {
  c_scale : string;
  c_arm : arm;
  c_load : float;  (** Offered-load multiplier of the sweep. *)
  c_offered_mbps : float;  (** Routed offered traffic over the window. *)
  c_goodput_mbps : float;  (** Delivered bytes over the window. *)
  c_mean_fct_s : float;
  c_p99_fct_s : float;
  c_reject_pct : float;  (** Flows denied admission (fluid tail drop). *)
  c_fg_drop_pct : float;  (** Foreground echoes lost to full FIFOs. *)
  c_fg_delay_ms : float;  (** Mean foreground one-way delivery delay under the load. *)
  c_arrivals : int;  (** Workload arrivals (including unroutable pairs). *)
  c_completed : int;
}

type result = {
  loads : float list;
  duration_s : float;
  cells : cell list;
  mp_goodput_gain : float;
      (** Multipath/single-path goodput ratio at the top load, 29-AS mesh. *)
  mp_p99_fct_ratio : float;
      (** Single-path/multipath p99 FCT ratio at the top load, 29-AS mesh. *)
}

val run :
  loads:float list ->
  duration_s:float ->
  topogen_ases:int ->
  ?telemetry:Obs.t ->
  unit ->
  result
(** Run the sweep: [duration_s] cells at each offered-load multiplier of
    [loads], on a [topogen_ases]-AS generated mesh beside the 29-AS one. One
    engine per scale carries its cells sequentially; the workload stream is
    re-derived from the fixed seed [0x10AD_CAFE] for every cell, so both
    arms see identical arrivals at each load point and the figure is
    byte-reproducible. The 29-AS network keeps 4 beacons per origin and the
    generated one 2: multipath needs a few disjoint paths, not a full store.
    Neither verifies PCBs, since no beacon is forged. [?telemetry] wires the
    29-AS network stack, the [traffic.*] series (labelled [scale]/[arm]) and
    the [exp.load.*] aggregates. Raises [Invalid_argument] on an empty sweep
    or non-positive load/duration. *)

val print_load : Buffer.t -> result -> unit
