(** Beacon store with a per-origin selection policy.

    Each AS keeps the best [k] candidate beacons per origin core AS,
    preferring shorter AS-level paths and, among equals, stable interface
    fingerprints. The store deduplicates by interface fingerprint, so
    re-propagation rounds converge instead of growing. The [k] knob trades
    control-plane state for path diversity — an ablation the benchmarks
    exercise. *)

type t

val create :
  ?per_origin:int -> ?metrics:Telemetry.Metrics.registry -> ?name:string -> unit -> t
(** Default [per_origin] is 8. With [?metrics], the store counts
    [beacon_store.inserted{store,outcome}] (outcome [added]/[replaced]),
    [beacon_store.rejected{store,reason}] (reason [full]/[duplicate]) and
    [beacon_store.expired{store}]; [?name] is the [store] label value
    (e.g. ["1-13/intra"]). *)

type outcome = Added | Replaced | Rejected_full | Rejected_duplicate

val insert : t -> Pcb.t -> outcome
(** Insert a candidate (must be non-empty). Duplicates (same interface
    fingerprint) refresh in place when newer. When the origin's bucket is
    full, the worst candidate is evicted if the new one is better. *)

val best : t -> k:int -> Pcb.t list
(** Up to [k] best beacons per origin, for propagation. *)

val all : t -> Pcb.t list

val clear : t -> unit
