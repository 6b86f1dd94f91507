(** The SCIERA deployment topology (Figure 1, Table 1) as data.

    All ASes of the paper's Figure 1 with their ISD-AS numbers, regions,
    tiers and Layer-2 links. Link latencies are one-way propagation delays
    derived from the geography of the PoPs (Table 1); they are this
    reproduction's stand-in for the physical circuits, as recorded in
    DESIGN.md. The module also describes the parallel "commodity Internet"
    used as the BGP/IP baseline of Section 5.4. *)

type region = Europe | North_america | Asia | South_america | Africa | Middle_east

type tier = Tier1 | Tier2 | Tier3

type as_info = {
  ia : Scion_addr.Ia.t;
  name : string;
  region : region;
  tier : tier;
  core : bool;
  ca : bool;
  profile : Scion_cppki.Cert.profile;
      (** Anapaya-style vs open-source stack (Section 4.5 heterogeneity). *)
  measurement_point : bool;  (** Runs scion-go-multiping (Section 5.4). *)
  pop : string;  (** Principal PoP city. *)
}

type link_info = {
  a : Scion_addr.Ia.t;
  b : Scion_addr.Ia.t;
  cls : Scion_controlplane.Mesh.link_class;
  latency_ms : float;  (** One-way propagation delay. *)
  jitter_ms : float;
  label : string;  (** e.g. "KREONET ring", "CAE-1", "GEANT Plus". *)
}

val ases : as_info list
(** Every AS of Figure 1 (ISD 71 plus the two ISD-64 ASes). *)

val links : link_info list
val find : Scion_addr.Ia.t -> as_info
(** Raises [Not_found]. *)

val find_by_name : string -> as_info option
val measurement_ases : Scion_addr.Ia.t list
(** The 11 vantage ASes: 5 in Europe, 2 in Asia, 3 in North America, 1 in
    South America. *)

val fig8_ases : Scion_addr.Ia.t list
(** The 9 ASes on the axes of Figures 8 and 9, in the paper's row order. *)

val name_of : Scion_addr.Ia.t -> string

(** The IP-baseline overlay: every AS homes onto a regional Internet hub;
    hubs are interconnected by commodity transit. BGP gives exactly one
    (min-hop) route per pair. *)
type ip_hub = { hub_name : string; hub_region : region }

val ip_hubs : ip_hub list
val ip_hub_links : (string * string * float) list
(** (hub, hub, one-way ms). *)

val ip_access_for : as_info -> string * float
(** The hub an AS homes onto and its access latency: the hand-built table
    for the Figure-1 names, otherwise a region hub (Africa homes via
    Europe, like WACREN) with a tier-scaled access latency — total over any
    [as_info], so generated meshes always get an IP-baseline homing. *)

(** {1 Instantiable topology descriptions}

    [Network.create] can instantiate any [spec]; {!sciera} is the paper's
    Figure-1 deployment and {!of_topogen} wraps a synthetic mesh from
    [Topogen.generate] into the same shape. *)

type spec = { spec_ases : as_info list; spec_links : link_info list }

val sciera : spec
val of_topogen : Topogen.t -> spec

(** Table 1: PoPs and collaborating networks. *)
val pops : (string * string * string) list
(** (location, peering NRENs, partner networks). *)
