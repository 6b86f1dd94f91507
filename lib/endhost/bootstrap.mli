(** End-host bootstrapping (Sections 4.1, 5.1): hint retrieval, then
    fetching the signed local-AS topology and TRCs from the bootstrapping
    server discovered via the hint.

    Timing is modelled per mechanism and per OS; Figure 4's evaluation
    (30 runs per mechanism on Windows/Linux/macOS, median total < 150 ms)
    is regenerated from this module by the benchmark harness. *)

(** The payload served at the bootstrapping server's /topology endpoint. *)
type topology_file = {
  ia : Scion_addr.Ia.t;
  border_routers : Scion_addr.Ipv4.endpoint list;
  control_service : Scion_addr.Ipv4.endpoint;
  signature : string;  (** By the AS certificate key. *)
}

val sign_topology :
  ia:Scion_addr.Ia.t ->
  border_routers:Scion_addr.Ipv4.endpoint list ->
  control_service:Scion_addr.Ipv4.endpoint ->
  signer:Scion_crypto.Schnorr.private_key ->
  topology_file

(** A bootstrapping server: topology plus the TRCs of the local ISD. *)
type server = {
  endpoint : Scion_addr.Ipv4.endpoint;
  topology : topology_file;
  trcs : Scion_cppki.Trc.t list;  (** Base first, then updates in order. *)
}

type os = Windows | Linux | Macos

val os_name : os -> string
val all_oses : os list

type timing = {
  mechanism : Hints.mechanism;
  hint_ms : float;
  config_ms : float;
  total_ms : float;
}

type error =
  | No_hint_available
  | Server_unreachable
  | Topology_signature_invalid
  | Trc_chain_invalid of string

val error_to_string : error -> string

(* scion-lint: rng-stream bootstrap -- every discovery-latency draw comes from the bootstrap stream *)
val run :
  rng:Scion_util.Rng.t ->
  os:os ->
  env:Hints.network_env ->
  server:server option ->
  as_cert_key:Scion_crypto.Schnorr.public_key ->
  ?force_mechanism:Hints.mechanism ->
  unit ->
  (topology_file * Scion_cppki.Trc.t * timing, error) result
(** One bootstrap attempt: probe hint mechanisms in {!Hints.preferred_order}
    (or only [force_mechanism]), contact the server, verify the topology
    signature against the AS certificate key and walk the TRC chain.
    [server = None] models an AS without a bootstrapping service. *)
