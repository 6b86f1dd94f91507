(** Section 5.5, Figure 10c — the link-failure simulation: connectivity
    among AS pairs as links are removed, multipath (any surviving route)
    versus a single-path alternative that pins the BGP-like best route of
    the intact topology. *)

type result = {
  fractions_removed : float array;
  multipath_connectivity : float array;
  singlepath_connectivity : float array;
  runs : int;
}

val run : runs:int -> ?telemetry:Obs.t -> unit -> result
(** [runs] random link-removal orders per fraction, drawn from the fixed
    seed [0xF1C5EED] so Figure 10c is byte-reproducible. The sweep uses a
    bare fabric with no control plane, so there are no beacon stores and
    nothing to verify. [?telemetry] records the sweep into the bundle's
    registry ([exp.fig10c.runs], [exp.fig10c.links] and per-mode
    [exp.fig10c.connectivity{mode}] summaries); this experiment drives a
    bare fabric, so the stack-level router/link instrumentation does not
    apply. *)

val connectivity_at : result -> float -> float * float
(** [(multipath, singlepath)] connectivity at a removed-links fraction. *)

val print_fig10c : Buffer.t -> result -> unit
