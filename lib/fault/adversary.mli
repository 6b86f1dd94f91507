(** Declarative adversary campaigns for the deterministic injector.

    The byzantine twin of {!Scenario}: where a scenario describes
    infrastructure failing, an adversary describes a participant
    misbehaving — a compromised AS corrupting or replaying beacons,
    forging hop-field MACs, registering bogus down-segments, a colluding
    pair tunneling traffic, reflection and volumetric floods, and a CA
    key compromise with its TRC-rotation drill.

    Both are a {!Campaign} over their own op type. An adversary draws
    only from its own stream — conventionally
    [Rng.of_label seed "fault.adv"] — so attaching one never perturbs
    workload draws. The op payloads are pure data (AS identifiers and
    counts); interpretation against a concrete mesh lives in the applier
    passed to {!Injector.attach}. *)

(** One primitive adversary action. *)
type op =
  | Corrupt_beacons of { compromised : Scion_addr.Ia.t; count : int }
      (** Inject [count] malformed PCBs (broken signatures) at the
          compromised AS's neighbors. *)
  | Replay_beacons of { compromised : Scion_addr.Ia.t; age_s : float; count : int }
      (** Re-inject [count] stale PCBs captured [age_s] seconds ago. *)
  | Forge_hop_macs of { compromised : Scion_addr.Ia.t; count : int }
      (** Send [count] data-plane packets with attacker-chosen hop fields. *)
  | Rogue_segments of { compromised : Scion_addr.Ia.t; victim : Scion_addr.Ia.t; count : int }
      (** Register [count] bogus down-segments claiming to reach [victim]. *)
  | Wormhole_up of { a : Scion_addr.Ia.t; b : Scion_addr.Ia.t }
      (** Colluding pair [a], [b] starts tunneling traffic out of band. *)
  | Wormhole_down of { a : Scion_addr.Ia.t; b : Scion_addr.Ia.t }
  | Scmp_reflect of { reflector : Scion_addr.Ia.t; victim : Scion_addr.Ia.t; count : int }
      (** Spoofed-source echo flood: [count] requests with [victim] as the
          forged source bounce off [reflector]. *)
  | Volumetric_flood of
      { attacker : Scion_addr.Ia.t; target : Scion_addr.Ia.t; packets : int; duplicate_pct : int }
      (** High-rate duplicate/garbage frames against [target]'s filter. *)
  | Trc_compromise of { isd : int }  (** The ISD's CA signing key leaks. *)
  | Trc_rotate of { isd : int }  (** Emergency TRC rotation drill. *)

val op_to_string : op -> string

include Campaign.S with type op := op

(** {1 Attack combinators} *)

val wormhole :
  a:Scion_addr.Ia.t -> b:Scion_addr.Ia.t -> from_s:float -> to_s:float -> t
(** Collusion window: tunnel up at [from_s], torn down at [to_s]. *)

val beacon_corruption :
  compromised:Scion_addr.Ia.t ->
  from_s:float ->
  until_s:float ->
  period_s:float ->
  count:int ->
  t
(** Periodic {!Corrupt_beacons} bursts during [\[from_s, until_s)]. *)

val beacon_replay :
  compromised:Scion_addr.Ia.t ->
  from_s:float ->
  until_s:float ->
  period_s:float ->
  age_s:float ->
  count:int ->
  t
(** Periodic {!Replay_beacons} bursts during [\[from_s, until_s)]. *)

val mac_forgery :
  compromised:Scion_addr.Ia.t ->
  from_s:float ->
  until_s:float ->
  period_s:float ->
  count:int ->
  t
(** Periodic {!Forge_hop_macs} bursts during [\[from_s, until_s)]. *)

val segment_poisoning :
  compromised:Scion_addr.Ia.t ->
  victim:Scion_addr.Ia.t ->
  from_s:float ->
  until_s:float ->
  period_s:float ->
  count:int ->
  t
(** Periodic {!Rogue_segments} registrations during [\[from_s, until_s)]. *)

val reflection :
  reflector:Scion_addr.Ia.t ->
  victim:Scion_addr.Ia.t ->
  from_s:float ->
  until_s:float ->
  period_s:float ->
  count:int ->
  t
(** Periodic {!Scmp_reflect} bursts during [\[from_s, until_s)]. *)

val flood :
  attacker:Scion_addr.Ia.t ->
  target:Scion_addr.Ia.t ->
  from_s:float ->
  until_s:float ->
  period_s:float ->
  packets:int ->
  duplicate_pct:int ->
  t
(** Periodic {!Volumetric_flood} bursts during [\[from_s, until_s)].
    [duplicate_pct] must be in [\[0, 100\]]. *)

val compromise_drill : isd:int -> at_s:float -> rotate_after_s:float -> t
(** {!Trc_compromise} at [at_s] followed by {!Trc_rotate} once the
    operators notice, [rotate_after_s] later. *)
