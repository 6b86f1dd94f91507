(** A mesh of SCION ASes with a full control plane: per-ISD PKI (TRC + CA +
    AS certificates), link management, hierarchical beaconing (core beacons
    across core links, intra-ISD beacons down parent-child links), segment
    registration into the path-server infrastructure, and path lookup
    through the {!Combinator}.

    The mesh is the control-plane substrate over which the SCIERA topology
    is instantiated; the packet-level data plane (latency, loss, failure)
    lives in [netsim] and is wired up by the [sciera] library. *)

module Ia = Scion_addr.Ia

type link_class = Core_link | Parent_child | Peering

type as_spec = {
  spec_ia : Ia.t;
  core : bool;
  ca : bool;  (** Operates the ISD CA (at most one per ISD is used). *)
  profile : Scion_cppki.Cert.profile;
  note : string;  (** Software-stack label, e.g. "open-source", "anapaya". *)
}

type link_spec = {
  l_a : Ia.t;  (** For [Parent_child], the parent. *)
  l_b : Ia.t;
  cls : link_class;
}

type config = {
  seed : int64;
  per_origin : int;  (** Beacon-store bucket size. *)
  propagate_k : int;  (** Beacons forwarded per origin per round. *)
  rounds : int;  (** Propagation rounds per beaconing run. *)
  verify_pcbs : bool;  (** Cryptographically verify PCBs on receipt. *)
  fanout_cap : int option;
      (** Upper bound on beacon extensions a node sends per propagation
          round ([None] = unlimited, the historic behaviour). Each send
          costs a signature, so this is the throttle that keeps dense
          generated meshes tractable; drops beyond the budget are counted
          by {!fanout_capped}. *)
  quarantine : quarantine_policy option;
      (** Beacon-origin containment: with [Some p], a neighbor interface
          whose beacons keep failing verification is quarantined for an
          exponentially growing window (see {!quarantine_policy}). [None]
          (the default) processes every arrival, the historic behaviour.
          When set together with [?metrics], the mesh also publishes
          [mesh.quarantine_events] / [mesh.quarantine_drops]. *)
}

and quarantine_policy = {
  q_threshold : int;
      (** Verification failures from one neighbor interface before it is
          quarantined (strikes reset when the window opens). *)
  q_backoff : Scion_util.Backoff.policy;
      (** Window growth per repeat offence ([delay_ms ~attempt:offences]).
          Must use zero jitter if attaching an adversary is to leave every
          workload RNG stream untouched — {!default_quarantine} does. *)
}

val default_config : config

val default_quarantine : quarantine_policy
(** 3 strikes; windows 5 s doubling to 120 s, zero jitter. *)

type t

val create :
  ?config:config ->
  ?metrics:Telemetry.Metrics.registry ->
  now:float ->
  ases:as_spec list ->
  links:link_spec list ->
  unit ->
  t
(** Build the mesh and its PKI. Raises [Invalid_argument] on inconsistent
    specs (unknown link endpoints, missing core/CA in an ISD, duplicate
    ASes).

    With [?metrics], the registry is threaded into every per-AS
    {!Beacon_store} (stores named ["<ia>/intra"] / ["<ia>/core"]) and
    border {!Scion_dataplane.Router}, and the mesh itself maintains
    [mesh.verification_failures], [mesh.beaconing_runs],
    [mesh.cert_renewals] and the [mesh.sigcache{result}] hit/miss gauges
    (published after each beaconing run; the signature-verification memo
    is process-wide, so they count its hits and misses since the mesh was
    created). *)

val config : t -> config
val ases : t -> Ia.t list
val is_core : t -> Ia.t -> bool
val trc : t -> int -> Scion_cppki.Trc.t
(** Raises [Not_found] for an unknown ISD. *)

val cert_of : t -> Ia.t -> Scion_cppki.Cert.t

(** [cert_material t ia] is the (AS certificate, CA certificate, TRC)
    triple for PCB verification — the lookup a control service performs
    before trusting a beacon entry. *)
val cert_material :
  t -> Ia.t -> (Scion_cppki.Cert.t * Scion_cppki.Cert.t * Scion_cppki.Trc.t) option

val neighbors : t -> Ia.t -> (int * Ia.t * link_class) list
(** (local interface id, neighbor, class) triples. *)

type link_id = int

val links : t -> (link_id * link_spec) list

val link_interfaces : t -> link_id -> int * int
(** The interface ids assigned to the two endpoints ([l_a]'s, [l_b]'s). *)

val find_links : t -> Ia.t -> Ia.t -> link_id list
(** All links between two ASes (either orientation). *)

val set_link_state : t -> link_id -> up:bool -> unit

val run_beaconing : t -> now:float -> unit
(** Clear all beacon state, originate at core ASes, propagate for
    [config.rounds] rounds over the currently-up links, then terminate and
    register segments (up segments locally, down segments in the global
    registry, core segments at core ASes). *)

val up_segments : t -> Ia.t -> Pcb.t list
val core_segments_at : t -> Ia.t -> Pcb.t list

val paths : t -> src:Ia.t -> dst:Ia.t -> Combinator.fullpath list
(** All known end-to-end paths (control-plane view; liveness is the data
    plane's problem). Returns [[]] when [src = dst]. This is the only path
    memo: results are kept per (src, dst) until a writer of the segment
    registries ({!run_beaconing}, {!register_rogue_segments}) drops them
    all, so repeated lookups pay the combinator cost once per
    registry state. *)

val memo_stats : t -> int * int
(** (hits, misses) of the {!paths} memo since mesh creation; a lookup with
    [src = dst] counts as neither. *)

val beacon_fanout : t -> int
(** Total beacon extensions propagated across all beaconing runs. *)

val fanout_capped : t -> int
(** Propagation sends dropped because a node exhausted
    [config.fanout_cap] in a round (always 0 with [fanout_cap = None]). *)

val state_bytes : t -> Ia.t -> int
(** Modelled live control-plane bytes held by one AS: stored plus
    terminated PCBs at 64 bytes fixed + 96 per AS entry. Deterministic, so
    the scaling figure can tabulate it. *)

val router : t -> Ia.t -> Scion_dataplane.Router.t
(** The AS's border router (one logical router per AS; multi-PoP ASes are
    modelled as distinct ASes, as KREONET does in the paper's Multi-AS
    model). Interface up/down state tracks {!set_link_state}. *)

type walk_result =
  | Walk_delivered of { dst : Ia.t; hops : int; packet : Scion_dataplane.Packet.t }
  | Walk_dropped of { at : Ia.t; reason : Scion_dataplane.Router.drop_reason }

val walk :
  t ->
  now:float ->
  ?payload:string ->
  ?proto:Scion_dataplane.Packet.proto ->
  Combinator.fullpath ->
  walk_result
(** Push a packet hop by hop through the border routers along [fullpath] —
    the data-plane ground truth used for liveness probing ("active" paths
    in Figure 8) and for the integration tests. *)

val path_alive : t -> now:float -> Combinator.fullpath -> bool
(** [walk] delivered to the path's destination AS. *)

val walk_packet :
  t ->
  now:float ->
  from:Ia.t ->
  ?max_steps:int ->
  Scion_dataplane.Packet.t ->
  walk_result
(** Lower-level walk for an already-built packet (e.g. a reply skeleton
    travelling the reversed path). *)

val renew_certificates : t -> now:float -> int
(** Run the automated-renewal sweep (Section 4.5): every AS whose
    certificate is past the renewal threshold asks its ISD CA for a new
    one. Returns the number of renewals performed. *)

val verification_failures : t -> int
(** PCBs rejected because signature verification failed (tamper, expired
    certificate, or a stale replay past its hop expiry), for
    observability. *)

(** {1 Containment}

    The defence half of the adversarial tier: per-neighbor quarantine
    state and the TRC-rotation drill. *)

val quarantine_events : t -> int
(** Times any neighbor interface entered quarantine (0 without
    [config.quarantine]). *)

val quarantine_drops : t -> int
(** Beacons skipped because their arrival interface was quarantined. *)

val rotate_trc : t -> isd:int -> now:float -> unit
(** Emergency key-rotation drill for one ISD: vote in a successor TRC with
    a fresh root (signed by the previous root, per TRC chaining), stand up
    a fresh CA chained to it, re-issue every AS certificate in the ISD
    from the node's true key (evicting any attacker-held identity
    installed by {!seize_as}), and re-bind the signature cache to the new
    key epoch so cached verdicts from the old root are dropped. *)

val rotations : t -> int
(** TRC rotations performed so far (across all ISDs). *)

(** {1 Byzantine surface}

    What a compromised AS can do to the mesh. These model the attacker's
    reach — nothing in the honest control plane calls them — and each
    draws only from the [rng] handed in, conventionally the dedicated
    [fault.adv] stream. *)

val seize_as : t -> ia:Ia.t -> now:float -> unit
(** CA-compromise model: the attacker uses the ISD's (compromised) CA to
    issue itself a certificate for [ia] and takes over the AS identity —
    beacons it signs from [ia] now verify. Undone by {!rotate_trc}. *)

(* scion-lint: rng-stream fault.adv -- attack payload draws come from the adversary stream *)
val inject_corrupt_beacons :
  t -> compromised:Ia.t -> rng:Scion_util.Rng.t -> now:float -> count:int -> int
(** Inject [count] malformed PCBs (one flipped signature byte) from
    [compromised] at its downstream neighbors, round-robin. Returns how
    many were accepted into a beacon store — 0 whenever verification is
    on, unless the identity was seized. *)

(* scion-lint: rng-stream fault.adv -- attack payload draws come from the adversary stream *)
val inject_replayed_beacons :
  t -> compromised:Ia.t -> rng:Scion_util.Rng.t -> now:float -> age_s:float -> count:int -> int
(** Inject [count] stale PCBs originated [age_s] seconds ago with valid
    signatures. Accepted unless verification's freshness check rejects
    them (it does once [age_s] exceeds the hop expiry). *)

(* scion-lint: rng-stream fault.adv -- attack payload draws come from the adversary stream *)
val register_rogue_segments :
  t -> compromised:Ia.t -> victim:Ia.t -> rng:Scion_util.Rng.t -> now:float -> count:int -> int
(** Byzantine down-segment registration: write [count] bogus segments for
    [victim] into the registry (registration is unauthenticated, the
    modeled path-server gap). Their AS-level route joins real up/core
    segments, but every hop field is MACed with the attacker's key, so
    honest routers drop the traffic — poisoned paths are served until the
    daemon's feedback loop revokes them. Drops the {!paths} memo. *)

