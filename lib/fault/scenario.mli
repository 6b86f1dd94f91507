(** Declarative fault scenarios: infrastructure failing.

    A {!Campaign} over fault {!op}s. A scenario elaborates against its own
    stream — conventionally [Rng.of_label seed "fault"] — and draws
    (flap jitter) from nothing else, so attaching a scenario never
    perturbs the workload's draws: the determinism rule the golden
    evidence depends on. Link and node ids are the target fabric's
    ({!Netsim.Net.link_id} / {!Netsim.Net.node}). *)

(** One primitive fault transition. [Node_*] and [Control_*] ops are
    resolved by the applier ({!Injector.attach}'s [apply]). *)
type op =
  | Link_down of Netsim.Net.link_id
  | Link_up of Netsim.Net.link_id
  | Extra_latency of { link : Netsim.Net.link_id; ms : float }
      (** Maintenance degradation: additive one-way latency ([0.] clears). *)
  | Loss_burst of { link : Netsim.Net.link_id; loss : float }
      (** Additive loss probability on top of the link's base loss
          ([0.] ends the burst). *)
  | Node_down of Netsim.Net.node
      (** Outage of a node: every incident link goes down. *)
  | Node_up of Netsim.Net.node
  | Control_down  (** Control-service blackout begins (path fetches fail). *)
  | Control_up

val op_to_string : op -> string

include Campaign.S with type op := op

(** {1 Fault combinators} *)

val flap :
  ?jitter_s:float ->
  link:Netsim.Net.link_id ->
  start_s:float ->
  count:int ->
  down_s:float ->
  up_s:float ->
  unit ->
  t
(** [count] down/up cycles: down at [start_s], up [down_s] later, next
    flap [up_s] after that. With [jitter_s], each phase duration is
    stretched by a uniform draw in [\[0, jitter_s)] from the scenario
    stream. *)

val window : link:Netsim.Net.link_id -> from_s:float -> to_s:float -> extra_ms:float -> t
(** Maintenance latency window: add [extra_ms] one-way at [from_s], clear
    it at [to_s]. *)

val outage : link:Netsim.Net.link_id -> from_s:float -> to_s:float -> t
(** Hard link outage window: down at [from_s], back up at [to_s]. *)

val burst : link:Netsim.Net.link_id -> from_s:float -> to_s:float -> loss:float -> t
(** Loss burst window: add [loss] per-traversal probability during
    [\[from_s, to_s)]. *)

val partition : node:Netsim.Net.node -> from_s:float -> to_s:float -> t
(** Node outage window: all links incident to [node] go down at [from_s]
    and come back at [to_s]. *)

val blackout : from_s:float -> to_s:float -> t
(** Control-service blackout window. *)

val control_up : event list -> bool
(** Whether the control service is up after the given events: the last
    [Control_*] op wins, and with none it is up. Pass the fired prefix of
    an injector's schedule to read the state mid-replay. *)
