(** The live SCIERA network: the Figure-1 topology instantiated as a full
    SCION control plane ({!Scion_controlplane.Mesh}) plus two link-level
    models — the SCION Layer-2 fabric and the commodity-Internet overlay
    used as the BGP baseline. The incident calendar drives link state over
    the measurement window; every state change re-converges the control
    plane, exactly as re-beaconing would. *)

module Mesh = Scion_controlplane.Mesh
module Combinator = Scion_controlplane.Combinator
module Ia = Scion_addr.Ia

type t

val create :
  ?seed:int64 ->
  ?per_origin:int ->
  ?verify_pcbs:bool ->
  ?topology:Topology.spec ->
  ?rounds:int ->
  ?propagate_k:int ->
  ?fanout_cap:int ->
  ?quarantine:Mesh.quarantine_policy ->
  ?telemetry:Obs.t ->
  unit ->
  t
(** Build a network at day 0 of the window and run initial beaconing.
    [per_origin] sizes the beacon stores (default 20). [?topology]
    selects the AS/link description (default {!Topology.sciera}, the
    Figure-1 deployment); pass [Topology.of_topogen] output to
    instantiate a generated mesh — the incident calendar then matches no
    links and day changes only trigger periodic re-beaconing. [?rounds]
    and [?propagate_k] tune beaconing (defaults 10 and [per_origin]);
    [?fanout_cap] forwards to {!Scion_controlplane.Mesh.config} for
    large generated meshes.
    [?quarantine] arms per-neighbor beacon-origin containment
    ({!Scion_controlplane.Mesh.quarantine_policy}); omitted means no
    quarantine, the historic behaviour.
    [?telemetry] threads a metrics registry through the mesh (beacon
    stores, border routers) and installs link monitors on both fabrics
    (names ["scion"] and ["ip"]). *)

val mesh : t -> Mesh.t

val topology : t -> Topology.spec
(** The description this network was instantiated from. *)

val now_unix : t -> float

val set_day : t -> float -> unit
(** Advance (or rewind) the calendar: give every link its state on that day
    in the calendar compiled at {!create} ({!Incidents.compile}); outside
    the window all links are up. Re-run beaconing when the up set changed,
    the last convergence is older than 0.8 day, or the day moves backward.
    Raises [Invalid_argument] on a non-finite day. *)

(* scion-lint: rng-stream fault -- elaboration of the scenario draws from the injector's fault stream *)
val inject :
  t ->
  engine:Netsim.Engine.t ->
  rng:Scion_util.Rng.t ->
  Fault.Scenario.t ->
  Fault.Scenario.op Fault.Injector.t
(** Attach a fault scenario to this network on the given engine. Each op
    drives both the link fabric and the control plane. Failures never
    re-beacon: the data plane has to discover them. A [Link_up] or
    [Node_up] that brings any link back re-runs beaconing once, as
    {!set_day} does, which also drops the mesh path memo; [Control_*] ops
    touch neither (read them back with {!Fault.Scenario.control_up}).
    Determinism contract: [rng] must be a stream of its own (e.g.
    [Rng.of_label seed "fault"]), never the network's workload stream —
    then attaching any scenario leaves every workload draw, and therefore
    every pre-existing figure golden, byte-identical. *)

(** {1 Adversary interpretation}

    The byzantine twin of {!inject}: a declarative {!Fault.Adversary}
    campaign compiled onto the engine, each op interpreted against this
    network's mesh, routers and filters. *)

type adversary_stats = {
  mutable adv_injected : int;  (** Bogus PCBs pushed at honest stores. *)
  mutable adv_accepted : int;  (** ... of which a store accepted. *)
  mutable adv_last_accept_s : float;
      (** Engine time of the last acceptance ([neg_infinity] if none) —
          the containment probe: once defences bite, this stops moving
          while the campaign keeps firing. *)
  mutable adv_rogue : int;  (** Rogue down-segments registered. *)
  mutable adv_forged_sent : int;  (** Forged-MAC packets launched. *)
  mutable adv_forged_delivered : int;  (** ... delivered (0 is the claim). *)
  mutable adv_reflect_requests : int;  (** Spoofed echo requests. *)
  mutable adv_reflect_answered : int;  (** Replies actually emitted. *)
  mutable adv_amp_bytes : int;  (** Amplification bytes at the victim. *)
  mutable adv_flood_frames : int;  (** Flood frames launched. *)
  mutable adv_flood_passed : int;  (** ... that reached the host. *)
  mutable adv_wormholes : (Ia.t * Ia.t) list;  (** Active colluding pairs. *)
  mutable adv_seized : Ia.t list;  (** Identities taken via CA compromise. *)
}

val wormhole_active : adversary_stats -> a:Ia.t -> b:Ia.t -> bool

(* scion-lint: rng-stream fault.adv -- campaign elaboration and attack payload draws use only the adversary stream *)
val attach_adversary :
  t ->
  engine:Netsim.Engine.t ->
  rng:Scion_util.Rng.t ->
  ?defended:bool ->
  Fault.Adversary.t ->
  Fault.Adversary.op Fault.Injector.t * adversary_stats
(** Attach an adversary campaign. Same determinism contract as {!inject}:
    [rng] must be the dedicated adversary stream
    ([Rng.of_label seed "fault.adv"]) and then attaching perturbs no
    workload draw. [~defended:true] (default false) arms the data-plane
    defences — a LightningFilter in front of each flood target (allowing
    the target's real neighbors, so the flood must spoof one and fails
    MAC verification) and a 2 KiB/s SCMP emission throttle on reflectors.
    The control-plane defences are create-time choices: [~verify_pcbs],
    [?quarantine], and operator drills ([Trc_rotate]) in the campaign
    itself. Beacon injections land through the mesh acceptance pipeline;
    rogue registrations drop the mesh path memo, so the next {!paths}
    serves them. *)

val paths : t -> src:Ia.t -> dst:Ia.t -> Combinator.fullpath list
(** {!Scion_controlplane.Mesh.paths} on this network's mesh: control-plane
    paths under the current segment registries, from the mesh's memo. *)

val live_paths : t -> src:Ia.t -> dst:Ia.t -> Combinator.fullpath list
(** Paths that currently deliver on the data plane (walked through the
    border routers) — "active" in the sense of Figure 8. *)

val path_links : t -> Combinator.fullpath -> Netsim.Net.link_id list
(** The SCION-fabric links under a path's interface trace. *)

val path_hops : t -> src:Scion_addr.Ia.t -> Combinator.fullpath -> Traffic.Flow.hop list
(** {!path_links} with direction: the hop sequence walked from [src]'s
    fabric node, as the traffic engine's {!Traffic.Flow.offer} needs it.
    Raises [Invalid_argument] when [src] is not an endpoint of the path's
    first link. *)

val arm_capacities : t -> bps:float -> queue_pkts:int -> unit
(** Arm {!Netsim.Net.set_capacity} on every SCION-fabric link — the
    congestion-experiment switch. Never called by {!create}: fabrics stay
    in the legacy latency/loss model (and goldens stay byte-identical)
    unless an experiment opts in. *)

val path_headroom_bps : t -> src:Scion_addr.Ia.t -> Combinator.fullpath -> float
(** Spare bottleneck capacity along the directed path: min over hops of
    (capacity − fluid load), ignoring unarmed hops ([infinity] if none is
    armed). The signal {!Scion_endhost.Pan.pick_flow_path} ranks by. *)

val scion_rtt_sample : t -> Combinator.fullpath -> [ `Rtt of float | `Lost ]
(** One SCMP ping over the path (analytic mode: per-link jitter and loss). *)

val scion_rtt_base : t -> Combinator.fullpath -> float
(** Deterministic RTT (2x one-way base+extra latency), for path ranking. *)

(* scion-lint: rng-stream caller -- all jitter/loss draws come from the probe's own stream, never the fabric's *)
val scmp_probe :
  t -> rng:Scion_util.Rng.t -> Combinator.fullpath -> [ `Rtt of float | `Lost ]
(** One full SCMP echo over the path: the request is walked hop by hop
    through the border routers, the echoed reply is walked back over the
    reversed path, and the RTT (or stochastic loss) is sampled from the
    link model using the {b caller's} [rng]. Same determinism contract as
    {!inject}: pass a private stream ([Rng.of_label seed "pathmon.probe"])
    and probing never perturbs workload draws. This is the probe source
    behind [Pathmon.Prober]. *)

val ip_rtt_sample : t -> src:Ia.t -> dst:Ia.t -> [ `Rtt of float | `Lost ]
(** One ICMP ping over the BGP route of the Internet overlay: per-link
    jitter and loss drawn from the overlay's stream, times the pair's BGP
    detour factor. The min-hop route and the detour factor are compiled
    once per (src, dst) on first use (here or in {!ip_rtt_base}) and never
    invalidated, since nothing writes the overlay after {!create}; only
    the draws are per call. [`Lost] if the overlay is partitioned. *)

val ip_rtt_base : t -> src:Ia.t -> dst:Ia.t -> float option
(** Deterministic IP RTT (2x one-way base latency along the pair's compiled
    route, times its detour factor); [None] if the overlay is partitioned.
    Draws nothing. *)

val scion_fabric : t -> Netsim.Net.t
(** The underlying SCION link model (for failure experiments). *)

(* scion-lint: rng-stream fabric -- accessor for the fabric's own stream (workload side) *)
val rng : t -> Scion_util.Rng.t
val rebeacon_count : t -> int
(** How many control-plane convergences have run (observability). *)

val telemetry : t -> Obs.t option
(** The observability bundle the network was created with, if any. *)
