(** The path combinator: joins up, core and down segments into end-to-end
    forwarding paths, including the two families of segment surgery that
    give SCION its path diversity (Section 2):

    - {b shortcuts}: when the up and down segments share a non-core AS, the
      path is cut there instead of climbing to the core;
    - {b peering}: when an AS on the up segment has a peering link to an AS
      on the down segment, the path crosses the peering link directly.

    The output is a list of distinct, loop-free candidate paths with their
    AS-level interface traces (for policy matching and disjointness
    computations), expiry and MTU. *)

module Path = Scion_dataplane.Path

type fullpath = {
  src : Scion_addr.Ia.t;
  dst : Scion_addr.Ia.t;
  segments : (Path.info * Path.hop list) list;
      (** Traversal-ordered segment data; {!fresh_raw} instantiates it. *)
  interfaces : Scion_addr.Hop_pred.hop list;
      (** AS-level trace with traversal ingress/egress interface ids;
          segment-crossover ASes appear once. *)
  expiry : float;
  mtu : int;
  fingerprint : string;  (** Stable identity derived from the trace. *)
}

val fresh_raw : fullpath -> Path.t
(** A new mutable data-plane path positioned at the first hop. Each packet
    send must use a fresh instance because forwarding mutates path state. *)

val num_hops : fullpath -> int
val contains_ia : fullpath -> Scion_addr.Ia.t -> bool

val interface_ids : fullpath -> (Scion_addr.Ia.t * int) list
(** All non-zero (IA, interface) pairs of the trace — the globally unique
    interface identifiers used for the disjointness metric of Section 5.4. *)

val disjointness : fullpath -> fullpath -> float
(** Fraction of distinct interfaces across the two paths: 1.0 means fully
    disjoint, 0.0 identical (Figure 10b's metric). *)

val build :
  ups:Pcb.t list ->
  cores:Pcb.t list ->
  downs:Pcb.t list ->
  src:Scion_addr.Ia.t ->
  dst:Scion_addr.Ia.t ->
  src_core:bool ->
  dst_core:bool ->
  fullpath list
(** Enumerate all valid combinations. [ups] are terminated segments with
    leaf [src]; [downs] terminated segments with leaf [dst]; [cores]
    terminated core segments available at the relevant core ASes (leaf =
    the AS that received them). Results are deduplicated and loop-free,
    sorted by hop count. *)

(** Memoised path lookup keyed by (src, dst, registry generation).

    [build] is pure in the segment registries, so its result can be reused
    until the registries change; the owner bumps [generation] on every
    beaconing run and the memo drops all stale entries in one sweep. *)
module Memo : sig
  type t

  val create : unit -> t

  val find :
    t ->
    generation:int ->
    src:Scion_addr.Ia.t ->
    dst:Scion_addr.Ia.t ->
    fullpath list option
  (** Counts a hit or a miss. *)

  val store :
    t ->
    generation:int ->
    src:Scion_addr.Ia.t ->
    dst:Scion_addr.Ia.t ->
    fullpath list ->
    unit

  val hits : t -> int
  val misses : t -> int
end
