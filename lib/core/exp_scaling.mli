(** The scaling sweep behind the [scaling] golden figure: synthetic
    [Topogen] meshes of growing AS count instantiated through
    {!Network.create}, measured against the 29-AS Figure-1 baseline.

    Per topology the sweep samples (src, dst) pairs from one private RNG
    stream and reports control-plane reachability, packet-level delivery
    over the best path (run on a real {!Netsim.Engine}), mean path count,
    latency stretch versus the fabric's shortest path, engine events,
    modelled peak control-plane state per AS, and the beaconing cost
    knobs (extensions signed, fan-out drops, path-memo hits/misses).
    Everything is deterministic in the seed: wall-clock is measured and
    bounded by the bench driver, never recorded here. *)

type row = {
  label : string;
  n_target : int;  (** Requested AS count (29 for the baseline). *)
  ases : int;
  links : int;
  cores : int;
  depth : int;  (** Deepest leaf (0 for the hand-built baseline's shape). *)
  pairs : int;  (** Sampled (src, dst) pairs. *)
  reachable_pct : float;  (** Pairs with at least one control-plane path. *)
  delivered_pct : float;  (** Packet-level echoes delivered over the best path. *)
  mean_paths : float;  (** Mean path count over reachable pairs. *)
  mean_stretch : float;  (** Best-path latency over fabric shortest path. *)
  events : int;  (** Engine events processed by the packet sweep. *)
  peak_state_bytes : int;  (** Largest modelled per-AS control-plane state. *)
  beacon_sends : int;  (** Beacon extensions propagated (signatures paid). *)
  fanout_capped : int;  (** Propagation sends dropped by the fan-out cap. *)
  memo_hits : int;
  memo_misses : int;
}

type result = {
  rows : row list;  (** Baseline first, then one row per requested size. *)
  sizes : int list;
  pairs_per_size : int;
}

val run : ?seed:int64 -> sizes:int list -> ?pairs:int -> unit -> result
(** One generated mesh per entry of [sizes], next to the 29-AS baseline.
    Defaults: seed [0x5CA1_AB1E], 120 pairs. *)

val print_scaling : Buffer.t -> result -> unit
