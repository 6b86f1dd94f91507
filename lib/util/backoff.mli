(** Capped exponential backoff with deterministic jitter.

    Every retry loop in [lib/] must pace itself through this module
    (scion-lint's [unbounded-retry] rule): a policy bounds the attempt
    count, the per-attempt delay grows geometrically up to a cap, and the
    jitter that de-synchronises concurrent retriers is drawn from the
    {b caller's} {!Rng.t} — never from ambient randomness — so a seeded
    simulation replays its retry schedule exactly.

    Delays are simulated milliseconds: nothing here sleeps or reads a
    clock. Callers account the returned delay against their own simulated
    timeline (an [Engine.t] schedule, an accumulated latency figure). *)

type policy = {
  base_ms : float;  (** First-retry delay before jitter. *)
  multiplier : float;  (** Geometric growth per attempt ([>= 1.0]). *)
  cap_ms : float;  (** Upper bound on the un-jittered delay. *)
  jitter : float;
      (** Relative jitter amplitude in [\[0, 1\]]: the delay is scaled by a
          factor uniform in [\[1 - jitter, 1 + jitter\]]. [0.] draws
          nothing from the RNG. *)
  max_attempts : int;  (** Total tries (first attempt included, [>= 1]). *)
}

val make :
  ?base_ms:float ->
  ?multiplier:float ->
  ?cap_ms:float ->
  ?jitter:float ->
  ?max_attempts:int ->
  unit ->
  policy
(** A policy with the given fields; the defaults are a 100 ms base,
    doubling, a 30 s cap, 20% jitter and 6 attempts. Raises [Invalid_argument] on non-finite or
    out-of-range fields (negative [base_ms], [multiplier < 1.0],
    [cap_ms < base_ms], [jitter] outside [\[0, 1\]], [max_attempts < 1]). *)

val delay_ms : policy -> rng:Rng.t -> attempt:int -> float
(** [delay_ms p ~rng ~attempt] is the pause after failed attempt [attempt]
    (1-based): [min cap_ms (base_ms *. multiplier ^ (attempt - 1))],
    jittered. Draws from [rng] exactly once when [p.jitter > 0.], never
    otherwise — so a zero-jitter policy leaves the stream untouched.
    Requires [attempt >= 1]. *)

type 'e give_up = { attempts : int; waited_ms : float; last_error : 'e }
(** How a retried operation failed for good: total tries made, total
    simulated backoff delay accumulated between them, and the error the
    final attempt returned. *)

val retry :
  policy ->
  rng:Rng.t ->
  (attempt:int -> ('a, 'e) result) ->
  ('a * int, 'e give_up) result
(** [retry p ~rng f] runs [f ~attempt:1], [f ~attempt:2], ... until [f]
    returns [Ok] or the policy is exhausted. [Ok (v, attempts)] carries how
    many tries the success took. On failure, [waited_ms] sums the jittered
    delays drawn between the attempts. *)
