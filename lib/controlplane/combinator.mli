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
  mutable wire : string;
      (** Cache: the path's encoded packet header ([""] until filled).
          [Mesh.walk] fills it on the first walk of this path and copies
          it on every walk after that. Because the field changes, never
          compare fullpaths structurally; compare {!fingerprint}s. *)
}

val fresh_raw : fullpath -> Path.t
(** A new mutable data-plane path positioned at the first hop, with its
    own copy of every info field. Each packet send must use a fresh
    instance because forwarding mutates path state; forwarding it leaves
    [segments] untouched. *)

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
    the AS that received them). The output contract:

    - every result is loop-free (no AS twice in [interfaces]) and passes
      {!Path.check};
    - results are sorted by (hop count, [fingerprint] bytes);
    - of two candidates with the same fingerprint (the same trace, though
      possibly from different segments), the one enumerated last is kept;
    - results share the segment data of the pieces they have in common
      (the [info] records and hop lists in [segments]). Nothing writes
      them: {!fresh_raw} copies every info field before forwarding. *)
