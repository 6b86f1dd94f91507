(** Deterministic pseudo-random number generation.

    All simulations in this repository must be reproducible, so every
    stochastic component draws from an explicitly-seeded [Rng.t] based on
    splitmix64. The generator is splittable: [split] derives an independent
    stream, which lets concurrent simulation entities own private streams
    without coordinating. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator for [seed]. *)

val of_label : int64 -> string -> t
(** [of_label seed label] derives a generator for [seed] specialised by
    [label]; distinct labels give independent streams. *)

val split : t -> t
(** [split t] returns a new generator statistically independent of the
    future output of [t]. [t] itself advances. *)

val int : t -> int -> int
(** [int t bound] returns a uniform integer in \[0, bound). Requires
    [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] returns a uniform float in \[0, bound). *)

val bool : t -> bool

val exponential : t -> rate:float -> float
(** Exponential sample with the given rate (mean [1. /. rate]). *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Lognormal sample: [exp] of a Box-Muller normal draw with mean [mu] and
    standard deviation [sigma]. *)

val pick : t -> 'a array -> 'a
(** [pick t arr] returns a uniformly-chosen element. Requires a non-empty
    array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

