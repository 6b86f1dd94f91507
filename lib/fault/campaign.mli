(** The combinator core shared by {!Scenario} and {!Adversary}.

    A campaign is a recipe over some op type: given its own
    {!Scion_util.Rng.t} stream it elaborates into a finite, time-sorted
    list of {!event}s. Elaboration is the only place random draws happen
    and combinator order is fixed, so the same (campaign, stream) pair
    always yields the same schedule — and since each campaign kind owns a
    dedicated stream ([fault] for scenarios, [fault.adv] for adversaries),
    attaching one never perturbs a workload draw. {!Injector.attach}
    compiles the elaborated list onto engine timers.

    Times are seconds on the simulation clock of the {!Netsim.Engine.t}
    the campaign is eventually attached to. *)

type 'op event = { at_s : float; op : 'op }
(** A concrete timer event after elaboration. *)

(** What every campaign kind exports: its events, the abstract recipe
    type, elaboration and the op-agnostic combinators. *)
module type S = sig
  type op

  type nonrec event = op event

  type t
  (** A campaign (composable, not yet elaborated). *)

  (* scion-lint: rng-stream caller -- draws only from the campaign's own stream (fault or fault.adv) *)
  val elaborate : t -> rng:Scion_util.Rng.t -> event list
  (** Expand into concrete events, sorted by time (ties keep combinator
      order). All random draws come from [rng]. *)

  val nothing : t

  val at : float -> op list -> t
  (** [at t ops] fires every op at time [t] (seconds, [>= 0.]). *)

  val every : period_s:float -> until_s:float -> float -> op list -> t
  (** [every ~period_s ~until_s start ops] repeats [ops] at [start],
      [start + period_s], ... strictly before [until_s]. Requires
      [period_s > 0.]. *)

  val seq : t list -> t
  (** Superpose campaigns (events interleave by time). *)

  val ( ++ ) : t -> t -> t
  (** [a ++ b] is [seq [a; b]]. *)
end

(** The core for one op type. [Op.name] prefixes every validation error
    (["Scenario.flap: ..."]). Besides {!S} it exposes the concrete recipe
    type and the checks op-specific combinators are built from; the
    [.mli] of each campaign kind re-exports only {!S}. *)
module Make (Op : sig
  type t

  val name : string
end) : sig
  include S with type op := Op.t and type t = Scion_util.Rng.t -> Op.t event list

  val invalid : string -> ('a, unit, string, 'b) format4 -> 'a
  (** [invalid combinator fmt ...] raises [Invalid_argument] prefixed with
      ["<Op.name>.<combinator>: "]. *)

  val check_time : string -> float -> unit
  (** Rejects a non-finite or negative time. *)

  val check_count : string -> int -> unit
  (** Rejects a negative count. *)

  val check_period : string -> float -> unit
  (** Rejects a non-finite or non-positive period. *)

  val span : string -> from_s:float -> to_s:float -> Op.t -> Op.t -> t
  (** [span name ~from_s ~to_s first last]: [first] at [from_s], [last]
      at [to_s]; rejects a window that ends before it starts. *)

  (* scion-lint: rng-stream caller -- draws only from the stream the campaign is elaborated against *)
  val jitter : string -> float -> Scion_util.Rng.t -> float
  (** [jitter name jitter_s] validates [jitter_s] (finite, [>= 0.]) and
      returns the stretch drawn per phase: uniform in [\[0, jitter_s)],
      or [0.] without a draw when [jitter_s = 0.]. *)
end
