(** The link-level network model: named nodes joined by links with
    propagation latency, jitter, loss, bandwidth and administrative state.

    Two consumers share this model:
    - the {b packet-level} mode ({!transmit}) schedules real deliveries on
      an {!Engine.t}, with FIFO serialisation per link direction — used by
      the end-host stack simulations and the examples;
    - the {b analytic} mode ({!path_rtt}) samples end-to-end RTTs directly
      — used for the 20-day measurement study where simulating ~90 M pings
      packet by packet would be pointless.

    Latency jitter is exponential on top of the base propagation delay;
    losses are independent Bernoulli per traversal. Links can be marked
    down (failures, Figure 10c) or degraded by extra latency (maintenance
    windows, Figure 7). *)

type t
type node = int
type link_id = int

(* scion-lint: rng-stream fabric -- the fabric owns this stream; observers must use the _with variants *)
val create : rng:Scion_util.Rng.t -> t

val add_node : t -> string -> node
(** Raises [Invalid_argument] on duplicate names. *)

val node_of_name : t -> string -> node option

type link_params = {
  latency_ms : float;  (** One-way propagation delay. *)
  jitter_ms : float;  (** Mean of the exponential jitter component. *)
  loss : float;  (** Per-traversal loss probability. *)
  bandwidth_mbps : float;
}

val default_params : link_params

val add_link : t -> node -> node -> link_params -> link_id
(** Raises [Invalid_argument] on a self loop, an unknown endpoint, or bad
    parameters: NaN/negative/infinite [latency_ms] or [jitter_ms], [loss]
    outside [\[0, 1\]], or non-positive [bandwidth_mbps]. *)

val endpoints : t -> link_id -> node * node
val num_links : t -> int
val links_of : t -> node -> link_id list

val set_link_up : t -> link_id -> bool -> unit
val link_up : t -> link_id -> bool
val set_extra_latency : t -> link_id -> float -> unit
(** Additive one-way latency in ms, for maintenance/degradation windows.
    Raises [Invalid_argument] when the value is NaN, negative or infinite
    (a negative maintenance window would silently corrupt RTT sampling). *)

val extra_latency : t -> link_id -> float

val set_extra_loss : t -> link_id -> float -> unit
(** Additive per-traversal loss probability, for loss bursts (fault
    injection). Effective loss is [min 1 (params.loss + extra)]. Raises
    [Invalid_argument] outside [\[0, 1\]]. With extra loss at [0.] the RNG
    draw sequence is identical to a fabric without bursts. *)

val extra_loss : t -> link_id -> float

(** {1 Capacity and queueing (opt-in congestion model)}

    Arming a link with {!set_capacity} switches its packet-level
    serialisation from the nominal [bandwidth_mbps] to an explicit
    capacity budget shared with a fluid (flow-level) background load, and
    bounds the per-direction FIFO with tail drop ([Queue_full]). Links
    never armed behave byte-identically to the pre-capacity model — same
    delivery times, same RNG draw sequence, same engine event count —
    which is what keeps every pre-existing golden snapshot stable. *)

val set_capacity : t -> link_id -> bps:float -> queue_pkts:int -> unit
(** Arm (or re-arm, resetting queue/fluid state) the congestion model on a
    link: [bps] is the serialisation capacity per direction, [queue_pkts]
    the bounded FIFO depth per direction. Raises [Invalid_argument] when
    [bps] is NaN, infinite or [<= 0], or when [queue_pkts < 1]. *)

val capacity : t -> link_id -> (float * int) option
(** [(bps, queue_pkts)] when armed. *)

val set_fluid_load : t -> link_id -> from:node -> bps:float -> unit
(** Declare the aggregate fluid (flow-level) load crossing the link in the
    direction leaving [from]. The packet path serialises over what the
    fluid load leaves free (with a 1% residual floor). Raises
    [Invalid_argument] on an unarmed link, a non-endpoint [from], or a
    NaN/negative/infinite [bps]. Owned by [Traffic.Flow]; callers other
    than a flow engine should treat it as read-only via {!fluid_load}. *)

val fluid_load : t -> link_id -> from:node -> float
(** Current fluid load in bps leaving [from]; [0.] when unarmed. *)

val sample_one_way : t -> link_id -> [ `Delivered of float | `Lost ]
(** One traversal: [`Delivered ms] or [`Lost]. Down links always lose. *)

val path_rtt : t -> link_id list -> [ `Rtt of float | `Lost ]
(** Round trip over the link sequence (forward then back, independent
    samples). Any lost traversal loses the ping. *)

(* scion-lint: rng-stream caller -- draws come from the observer's private stream, never the fabric's *)
val path_rtt_with :
  t -> rng:Scion_util.Rng.t -> link_id list -> [ `Rtt of float | `Lost ]
(** {!path_rtt} drawing every sample from the caller's [rng] — the
    RNG-isolated variant probers must use. *)

val path_base_latency : t -> link_id list -> float
(** Sum of base + extra latencies, one way, no jitter — the deterministic
    component used for path ranking. *)

(** {1 Link monitoring}

    A monitor observes every packet-level send attempt: [Tx] when a packet
    starts serialising (with the FIFO wait it incurred), [Rx] when it is
    delivered (emitted just before the arrival callback runs), and [Drop]
    when the link was down or the loss draw failed. Attaching or detaching
    a monitor never changes simulation behaviour — in particular, the RNG
    draw sequence is identical with and without one. *)

type drop_cause =
  | Link_down
  | Random_loss
  | Queue_full  (** Bounded FIFO tail drop on a capacity-armed link. *)

type link_event =
  | Tx of { link : link_id; src : node; size_bytes : int; wait_s : float }
      (** [wait_s] is the serialisation-queue wait in seconds. *)
  | Rx of { link : link_id; dst : node; size_bytes : int }
  | Drop of { link : link_id; src : node; size_bytes : int; cause : drop_cause }

val set_monitor : t -> (link_event -> unit) -> unit
(** Install the monitor (replacing any previous ones). *)

val add_monitor : t -> (link_event -> unit) -> unit
(** Register an additional monitor without displacing existing ones.
    Monitors run in registration order. Registration is O(1); the
    fan-out array is rebuilt lazily at the next event. *)

val transmit :
  t ->
  Engine.t ->
  link_id ->
  from:node ->
  size_bytes:int ->
  on_arrival:(unit -> unit) ->
  unit
(** Packet-level send: serialisation (FIFO per direction) + propagation +
    jitter, or silent drop on loss/down link. On a capacity-armed link the
    serialisation rate is the capacity left free by the fluid load, and a
    full FIFO tail-drops the packet ([Queue_full]) — the loss draw still
    happens first, exactly once per attempt, so arming capacity never
    shifts the fabric RNG stream. *)

val dijkstra : t -> src:node -> dst:node -> (float * link_id list) option
(** Lowest base-latency route over up links. *)

val min_hop_route : t -> src:node -> dst:node -> link_id list option
(** Fewest-links route over up links (BGP-like shortest AS path, with
    deterministic tie-breaking). *)

val connected : t -> src:node -> dst:node -> bool
(** Reachability over up links. *)
