(** Section 3.3 — SCIERA ISD evolution: what regionally scoped ISDs
    (SCIERA-EU, SCIERA-NA, ...) would buy.

    The paper argues that splitting the single ISD 71 into regional ISDs
    would "enhance fault isolation by containing failures within specific
    geographic regions" and distribute governance (each region runs its own
    TRC and CA). This experiment quantifies the claim on the modelled
    deployment: certificate issuance is the ISD-wide single point of
    failure (AS certificates live only a few days, Section 4.5), so a CA /
    TRC incident eventually takes down every AS of its ISD. We compare the
    blast radius of such an incident under the current single-ISD
    governance against the proposed regional split. *)

type governance = Current_single_isd | Regional_isds

type scenario = {
  failed_domain : string;
  dead_ases : int;  (** ASes whose certificates cannot renew. *)
  pairs_lost : float;  (** Fraction of AS pairs losing all connectivity. *)
}

type result = {
  single : scenario list;
  regional : scenario list;
  single_avg_blast : float;  (** Mean pairs_lost over CA scenarios. *)
  regional_avg_blast : float;
  regional_domains : (string * int) list;  (** (domain, ASes governed). *)
}

val run : ?telemetry:Obs.t -> unit -> result
(** The network uses {!Network.create}'s default seed, so the figure is
    byte-reproducible, and 6 beacons per origin: a pair survives if any path
    avoids the dead ASes, so a small store suffices. PCBs are not verified,
    since no beacon is forged. [?telemetry] instruments the underlying
    network and additionally publishes one
    [exp.isd.pairs_lost{domain,governance}] gauge per scenario. *)

val print_report : Buffer.t -> result -> unit
