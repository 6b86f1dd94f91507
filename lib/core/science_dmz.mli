(** The SCION-based Science-DMZ (Section 4.7.1): LightningFilter-style
    line-rate traffic filtering and Hercules-style multipath bulk transfer.

    LightningFilter authenticates SCION traffic with per-source-AS
    symmetric keys (DRKey-style derivation) and enforces per-AS rate
    limits, replacing the stateful campus firewall that would otherwise
    bottleneck a data-transfer node. Hercules schedules a bulk transfer
    across several SCION paths at once, which is where the path
    disjointness of Figure 10b turns into aggregated bandwidth. *)

module Filter : sig
  type t

  type verdict = Accepted | Bad_mac | Rate_limited | Unknown_source | Duplicate

  val create : local_secret:string -> allowed:(Scion_addr.Ia.t * float) list -> unit -> t
  (** [allowed] maps each authorised peer AS to its rate limit in
      packets/second (token bucket with a 1-second burst). Replays are
      suppressed in 1-second windows: within one window, a tag is MAC-verified at most once per
      source AS; any later packet carrying the same tag is dropped as
      {!Duplicate} at hashtable-lookup cost, without touching the payload. *)

  val host_key : t -> peer:Scion_addr.Ia.t -> string
  (** The DRKey-style key a sender in [peer] uses to authenticate packets
      to this DMZ (derivable on both sides without per-flow state). *)

  val authenticate : key:string -> payload:string -> string
  (** Sender side: the 16-byte tag for a payload. *)

  val check :
    t -> now:float -> src:Scion_addr.Ia.t -> payload:string -> tag:string -> verdict
  (** Admission order: source lookup, window rotation, tag dedup
      ({!Duplicate}, no hash), MAC verification ({!Bad_mac}, not recorded
      in the window), then the token bucket. Only MAC-verified tags enter
      the dedup store, so a forged tag can never shadow a later genuine
      packet. *)

  val check_batch :
    t ->
    now:float ->
    (Scion_addr.Ia.t * string * string) list ->
    verdict list
  (** [check_batch t ~now [(src, payload, tag); ...]] runs {!check} over an
      arriving burst sharing one [now]. The whole burst lands in a single
      dedup window, so each distinct packet is hashed once and every replay
      in the burst — including replays {e within} the batch — is suppressed
      at lookup cost. *)

  val accepted : t -> int
  val rejected : t -> int
end

module Hercules : sig
  type path_capacity = { rtt_ms : float; bandwidth_mbps : float }

  type plan = {
    total_mbps : float;
    completion_s : float;
    per_path_share : float list;  (** Fraction of bytes per path. *)
  }

  val plan_transfer : size_gb : float -> paths:path_capacity list -> plan
  (** Bandwidth-proportional striping across paths; completion includes a
      slow-start ramp of a few RTTs on each path. Raises
      [Invalid_argument] on an empty path list. *)

  val single_path_completion : size_gb:float -> path_capacity -> float
end
