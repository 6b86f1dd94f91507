(** Path-segment construction beacons (PCBs) and path segments.

    A PCB is originated by a core AS and extended hop by hop; each AS
    appends a signed entry containing its hop field (MAC-chained as in
    {!Scion_dataplane.Path}) and optional peer entries for its peering
    links. A *terminated* PCB (final entry with egress 0) is a path
    segment: the same object serves as an up segment for the leaf AS and,
    once registered, as a down segment for everyone else. *)

module Path = Scion_dataplane.Path

type peer_entry = {
  peer_ia : Scion_addr.Ia.t;
  peer_interface : int;  (** Local interface of the peering link. *)
  peer_remote_if : int;  (** Interface id at the peer AS. *)
  peer_hop : Path.hop;
      (** Hop field with [cons_ingress] = peering interface; its MAC is
          chained with the beta value *after* this AS's regular hop. *)
}

type as_entry = {
  ia : Scion_addr.Ia.t;
  hop : Path.hop;
  peers : peer_entry list;
  mtu : int;
  note : string;  (** Implementation note, e.g. software stack name. *)
  signature : string;
}

type t = {
  seg_id : int;  (** beta_0 of the MAC chain. *)
  timestamp : int32;
  entries : as_entry list;  (** Construction order: origin core AS first. *)
}

(* scion-lint: rng-stream beacon -- origination draws only the seg_id; the mesh threads its beacon stream *)
val originate :
  rng:Scion_util.Rng.t -> now:float -> t
(** Fresh PCB with a random [seg_id] and no entries. *)

val origin : t -> Scion_addr.Ia.t
(** Raises [Invalid_argument] on an empty PCB. *)

val leaf : t -> Scion_addr.Ia.t
val num_entries : t -> int
val contains : t -> Scion_addr.Ia.t -> bool
val beta_at : t -> int -> int
(** [beta_at t i] folds hop MACs of entries [0..i-1] into [seg_id]. *)

val extend :
  t ->
  ia:Scion_addr.Ia.t ->
  fwkey:Scion_dataplane.Fwkey.t ->
  signer:Scion_crypto.Schnorr.private_key ->
  ingress:int ->
  egress:int ->
  ?peers:(Scion_addr.Ia.t * int * int) list ->
  ?note:string ->
  unit ->
  t
(** Append this AS's signed entry, with MTU 1472 and hop fields of the
    longest validity ({!Scion_dataplane.Path.max_exp_time}). [ingress] is
    the interface the PCB arrived on (0 at the origin), [egress] the
    interface it will leave on (0 terminates the PCB into a segment).
    [peers] lists [(peer_ia, local_if, remote_if)] for each up peering
    link. *)

val newest_signed : t -> (Scion_addr.Ia.t * string * string) option
(** The newest entry's AS, the exact message it signed and its signature:
    the one item of a freshly extended PCB that no receiver has checked
    yet. [None] on an empty PCB. *)

type check_error =
  | Empty
  | Loop of Scion_addr.Ia.t
  | Bad_signature of Scion_addr.Ia.t * string
  | Unknown_as of Scion_addr.Ia.t

val check_error_to_string : check_error -> string

val structural_check : t -> receiver:Scion_addr.Ia.t -> (unit, check_error) result
(** Non-cryptographic acceptance checks: non-empty and no loop through the
    receiver. *)

val verify :
  t ->
  cache:Sigcache.t ->
  lookup:(Scion_addr.Ia.t -> (Scion_cppki.Cert.t * Scion_cppki.Cert.t * Scion_cppki.Trc.t) option) ->
  now:float ->
  (unit, check_error) result
(** Cryptographic verification of every entry signature through the
    CP-PKI: [lookup ia] returns the AS certificate, its CA certificate and
    the relevant TRC. Entry signatures and the certificate-chain signatures
    are all answered through [cache]; validity windows and the other chain
    checks are re-run against [now] on every call. *)

val interface_encoding : t -> string
(** Identity of the segment as a sequence of (IA, ingress, egress)
    triples, 12 bytes per entry: the IA's 8-byte wire form, then the
    construction ingress and egress as big-endian u16. Stable across
    re-originations. Where only equality counts (the mesh's send dedup),
    this is the key itself. *)

val interface_fingerprint : t -> string
(** The SHA-256 digest of {!interface_encoding}: a fixed-size identity,
    used for store dedup and tie order and for tracking "the same path"
    over time (Figure 9). *)

val expiry : t -> float
(** Earliest hop-field expiry. *)

