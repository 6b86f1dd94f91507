(** Trace spans over the simulated clock.

    Callers pass [~now] explicitly (typically [Netsim.Engine.now]); the
    tracer never reads a wall clock. Each record gets a sequence number at
    creation, so ordering is total and deterministic even when many records
    share a simulated instant. [to_jsonl] renders one canonical JSON object
    per line, with fields in sorted key order — byte-stable across seeded
    runs. *)

type t

type value = Str of string | Int of int | Float of float | Bool of bool

val create : unit -> t

(** {1 Spans} *)

type span

val span : t -> now:float -> string -> span
(** Open a span; nothing is recorded until {!finish}. *)

val finish : span -> now:float -> ?fields:(string * value) list -> unit -> unit
(** Close the span, recording start/end/duration. Raises [Invalid_argument]
    if the span was already finished. *)

(** {1 Serialisation} *)

val to_jsonl : t -> string
(** One JSON object per line, chronological (sequence) order. *)

