(** The fluid (flow-level) half of the hybrid-fidelity traffic model.

    Active flows split every capacity-armed link they cross by max-min
    fair share, recomputed on each arrival and departure; between
    recomputes every rate is constant, so per-flow byte integration is
    exact, not sampled. The allocator is progressive filling over flat
    arrays: each directed link keeps the hop entries of the active flows
    crossing it in ascending flow order, across events (an arrival
    appends, a departure compacts the links it crossed). Each recompute
    fills from scratch over that index: each round freezes the flows of
    the directed link with the smallest fair share (ties to the lowest
    [(link, from)]) and re-sums the frozen load only on the links those
    flows cross. Shares and pushed loads are summed in ascending flow
    order, so the allocation is a deterministic function of the active
    set, bit for bit. Admission reads a per-directed-link count of the
    active flows crossing it, kept on start and completion. The
    allocation is pushed into {!Netsim.Net.set_fluid_load}, which is how
    the packet-level foreground sees background load as consumed
    capacity.

    Determinism contract: the flow engine draws {b no} randomness — every
    stochastic choice lives in {!Workload} on its private ["traffic"]
    stream — and it schedules engine events only for flows it carries, so
    attaching traffic to a simulation perturbs neither the fabric's
    workload draws nor any fault/pathmon stream (pinned by
    [test/test_traffic.ml]). *)

type hop = { link : Netsim.Net.link_id; from : Netsim.Net.node }
(** One directed traversal: [link] entered from endpoint [from]. *)

type t

val create :
  ?metrics:Telemetry.Metrics.registry ->
  ?labels:Telemetry.Metrics.labels ->
  ?min_rate_bps:float ->
  ?on_complete:(fct_s:float -> size_bytes:float -> unit) ->
  engine:Netsim.Engine.t ->
  Netsim.Net.t ->
  t
(** A flow engine over [net] driven by [engine] timers. [min_rate_bps]
    (default [0.], i.e. admit everything) rejects arrivals whose
    bottleneck share would fall below the floor — the fluid analogue of an
    access-queue drop. [on_complete] observes each completion with its
    flow completion time. With [metrics], maintains the [traffic.*]
    series. Raises [Invalid_argument] on a NaN/negative/infinite
    [min_rate_bps]. *)

val offer : t -> hops:hop list -> size_bytes:float -> [ `Started of int | `Rejected ]
(** Offer a flow of [size_bytes] over the directed hop sequence. Every hop
    link must be capacity-armed and every hop's [from] an endpoint of its
    [link] ([Invalid_argument] otherwise, as is an empty hop list or a
    non-positive/non-finite size; nothing is counted or changed then).
    Returns [`Rejected] (counted, with its bytes) when the admission
    floor would be violated; otherwise starts the flow and reallocates. *)

val recompute_now : t -> unit
(** Force an elapse + completion sweep + reallocation at the engine's
    current time (exposed for the fair-share micro benchmark; the engine
    calls it internally on every membership change). *)

val active_count : t -> int

val rate : t -> int -> float option
(** Current allocated rate of an active flow, bps; [None] once it
    completed or was never admitted. *)

type stats = {
  started : int;
  completed : int;
  rejected : int;
  offered_bytes : float;
  delivered_bytes : float;
  rejected_bytes : float;
}

val stats : t -> stats
(** Conservation invariant once every flow has drained:
    [offered_bytes = delivered_bytes + rejected_bytes] (pinned by qcheck
    in [test/test_traffic.ml]). *)
