(** The deterministic injector: compiles an elaborated campaign — a
    {!Scenario} or an {!Adversary} — into {!Netsim.Engine.t} timer events.

    Determinism contract: the caller elaborates against the campaign's own
    stream ([Scenario.elaborate s ~rng:(Rng.of_label seed "fault")], or
    ["fault.adv"] for an adversary) and the injector itself draws nothing.
    Attaching (or not attaching) an injector therefore leaves every
    workload RNG stream byte-identical; only the transitions [apply]
    performs can change what the workload observes. [test/test_golden.ml]
    pins this property against the checked-in evidence. *)

type 'op t

val attach :
  engine:Netsim.Engine.t -> apply:('op -> unit) -> 'op Campaign.event list -> 'op t
(** Schedule one engine event per elaborated op; each event calls
    [apply]. Ops scheduled before the engine's current time are rejected
    with [Invalid_argument] (a campaign is attached at or before its
    first op, never mid-flight). *)

val events : 'op t -> 'op Campaign.event list
(** The full elaborated schedule, sorted by time. *)

val fired : 'op t -> int
(** Ops applied so far (grows as the engine runs). *)
