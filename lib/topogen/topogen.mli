(** Deterministic synthetic SCION topology generator.

    Grows a hierarchical ISD/core backbone — per-ISD core rings with
    density-controlled chords, an inter-ISD core ring — and attaches
    Tier2/Tier3 ASes with Barabási–Albert-style preferential attachment
    (new ASes prefer parents that already have many children, producing
    the heavy-tailed provider degree distribution of deployed networks).
    Every draw comes from one private [Rng.of_label seed "topogen"]
    stream, so equal (seed, params) give byte-identical topologies.

    The output mirrors the [as_info]/[link_info] shape of the hand-built
    Figure-1 topology in [lib/core/topology.ml]; [Sciera.Topology.of_topogen]
    converts it, after which [Network.create], [Mesh] and the fault /
    pathmon layers run on generated meshes unchanged. *)

type region = Europe | North_america | Asia | South_america | Africa | Middle_east

type tier = Tier1 | Tier2 | Tier3

type as_info = {
  ia : Scion_addr.Ia.t;
  name : string;
  region : region;
  tier : tier;
  core : bool;
  ca : bool;  (** First core of each ISD operates the ISD CA. *)
  profile : Scion_cppki.Cert.profile;
  measurement_point : bool;  (** Deterministic vantage subset (1 in 16). *)
  pop : string;
}

type link_info = {
  a : Scion_addr.Ia.t;  (** For [Parent_child], the parent. *)
  b : Scion_addr.Ia.t;
  cls : Scion_controlplane.Mesh.link_class;
  latency_ms : float;  (** One-way propagation delay. *)
  jitter_ms : float;
  label : string;
}

type params = {
  n_ases : int;  (** Total AS count, cores included. *)
  n_isds : int;  (** Isolation domains (ISDs number 1..n). *)
  cores_per_isd : int;
  core_chord_prob : float;
      (** Core density: probability of a chord between each non-adjacent
          core pair (within an ISD; halved across ISDs). *)
  attach_degree : int;  (** Parent links per non-core AS (BA's m). *)
  tier2_fraction : float;
      (** Share of non-core ASes that are Tier2 transit (and can
          themselves acquire children); the rest are Tier3 leaves. *)
}

val default : n_ases:int -> params
(** Sensible defaults scaled to [n_ases]: 2-6 ISDs, 3 cores each,
    [attach_degree = 2], 15% Tier2, chord probability 0.35. Raises
    [Invalid_argument] when [n_ases] cannot fit the derived core count. *)

type t = {
  gen_params : params;
  ases : as_info list;  (** Cores of every ISD first, then attachment order. *)
  links : link_info list;  (** Core links first, then parent-child links. *)
}

val generate : seed:int64 -> params -> t
(** Deterministic generation from the ["topogen"] stream of [seed].
    Connectivity holds by construction: cores form rings (intra- and
    inter-ISD) and every non-core AS attaches to an already-connected
    parent of its own ISD, so every leaf is core-reachable over
    parent-child links alone. Raises [Invalid_argument] on inconsistent
    parameters (non-positive counts, probabilities outside [0, 1],
    [n_ases] below the core count). *)

val to_string : t -> string
(** Canonical one-line-per-AS/link dump — the byte-identity witness the
    property tests compare across equal seeds. *)

val core_count : t -> int
val max_depth : t -> int
(** Deepest leaf, counted in parent-link hops to the nearest core — a
    lower bound on the beaconing rounds needed to reach every AS. *)
