(** Discrete-event simulation engine: a time-ordered event queue with
    stable FIFO ordering for simultaneous events. All latencies in the
    SCIERA experiments come out of this engine (packet-level mode) or out
    of the analytic fast path built on the same link model. *)

type t

val create : unit -> t
(** An empty engine at simulated time [0.]. *)

val now : t -> float
val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** [schedule_at t ~time f] runs [f] at simulated [time], which must not be
    in the past. *)

val run : ?until:float -> t -> unit
(** Process events in order until the queue drains or simulated time would
    exceed [until]. The clock ends at the last processed event (or [until]
    if given and reached). *)

val step : t -> bool
(** Process a single event; [false] when the queue is empty. *)

val events_processed : t -> int
(** Total events executed since [create]. *)
