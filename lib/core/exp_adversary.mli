(** The containment golden figure: adversarial chaos against the SCIERA
    deployment. Eight attack classes — corrupted and replayed beacons,
    forged hop-field MACs, rogue down-segment registrations, a wormhole
    pair, SCMP reflection, a volumetric flood, and a CA compromise with
    rotation drill — each run with the defence stack on and off, at the
    29-AS deployment and a generated Topogen mesh. Per cell the figure
    reports the class's blast radius (degraded pairs, bogus control-plane
    state accepted, amplification bytes, flood frames through) and the
    time from attack onset to neutralisation.

    Determinism contract: the campaigns draw only from the dedicated
    adversary stream ([Rng.of_label seed "fault.adv"]) and the
    measurement sampling only from a private workload stream, so running
    this figure perturbs no other figure's draws. *)

type attack = Corrupt | Replay | Forge | Rogue | Wormhole | Reflect | Flood | Compromise

val attack_name : attack -> string

type cell = {
  c_attack : attack;
  c_scale : string;
  c_defended : bool;
  c_degraded_pct : float;  (** Mean degraded-pair percentage over the window. *)
  c_bogus : int;  (** Bogus beacons accepted / rogue segments / forged delivered. *)
  c_amp_kb : float;  (** Amplification KiB emitted at the reflector. *)
  c_flood_passed : int;  (** Flood frames that reached the host. *)
  c_contain_s : float;
      (** Seconds from attack onset to neutralisation; 0 when the attack
          never had effect, censored at the measurement horizon when it
          was never contained. *)
}

type result = {
  cells : cell list;  (** One row per (class, scale, defences). *)
  scales : string list;
  classes_contained : int;
      (** Classes with strictly smaller blast radius AND strictly faster
          containment with defences on, at every scale. *)
  quarantine_events : int;
  quarantine_drops : int;
  scmp_suppressed : int;
  poisoned_revocations : int;
  rotations : int;
}

val blast_scalar : cell -> float
(** The class-specific blast-radius scalar of a cell. *)

(* scion-lint: rng-stream fault.adv -- the experiment builds the adversary stream itself; workload sampling uses a private stream *)
val run : unit -> result
(** Run the full grid (8 classes x 2 scales x defences on/off), the second
    scale a 600-AS generated mesh. The seed is fixed at
    [0xADD5_EC4E], so the containment figure is byte-reproducible; the
    adversary and workload streams are labelled from it. The 29-AS
    networks keep 4 beacons per origin and the generated ones 2, which
    keeps the grid of networks cheap to beacon. PCB verification is
    on exactly in the defended cells: it is the defence under test. *)

val print_containment : Buffer.t -> result -> unit
(** Append the containment table plus the defence-ledger summary line to
    the buffer. *)
