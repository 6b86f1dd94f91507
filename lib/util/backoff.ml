type policy = {
  base_ms : float;
  multiplier : float;
  cap_ms : float;
  jitter : float;
  max_attempts : int;
}

let validate p =
  let finite_nonneg name v =
    if not (Float.is_finite v) || v < 0.0 then
      invalid_arg (Printf.sprintf "Backoff.make: %s must be finite and >= 0 (got %g)" name v)
  in
  finite_nonneg "base_ms" p.base_ms;
  finite_nonneg "cap_ms" p.cap_ms;
  if Float.is_nan p.multiplier || p.multiplier < 1.0 then
    invalid_arg (Printf.sprintf "Backoff.make: multiplier must be >= 1 (got %g)" p.multiplier);
  if p.cap_ms < p.base_ms then
    invalid_arg
      (Printf.sprintf "Backoff.make: cap_ms (%g) must be >= base_ms (%g)" p.cap_ms p.base_ms);
  if Float.is_nan p.jitter || p.jitter < 0.0 || p.jitter > 1.0 then
    invalid_arg (Printf.sprintf "Backoff.make: jitter must be in [0, 1] (got %g)" p.jitter);
  if p.max_attempts < 1 then
    invalid_arg (Printf.sprintf "Backoff.make: max_attempts must be >= 1 (got %d)" p.max_attempts);
  p

let default =
  { base_ms = 100.0; multiplier = 2.0; cap_ms = 30_000.0; jitter = 0.2; max_attempts = 6 }

let make ?(base_ms = default.base_ms) ?(multiplier = default.multiplier)
    ?(cap_ms = default.cap_ms) ?(jitter = default.jitter) ?(max_attempts = default.max_attempts)
    () =
  validate { base_ms; multiplier; cap_ms; jitter; max_attempts }

let delay_ms p ~rng ~attempt =
  if attempt < 1 then invalid_arg "Backoff.delay_ms: attempt must be >= 1";
  let raw = p.base_ms *. (p.multiplier ** float_of_int (attempt - 1)) in
  let capped = Float.min p.cap_ms raw in
  if p.jitter > 0.0 then
    (* One draw per delay, from the caller's stream: factor uniform in
       [1 - jitter, 1 + jitter]. *)
    capped *. (1.0 -. p.jitter +. Rng.float rng (2.0 *. p.jitter))
  else capped

let exhausted p ~attempt = attempt > p.max_attempts

type 'e give_up = { attempts : int; waited_ms : float; last_error : 'e }

let retry p ~rng f =
  let rec go attempt waited =
    match f ~attempt with
    | Ok v -> Ok (v, attempt)
    | Error e ->
        if exhausted p ~attempt:(attempt + 1) then
          Error { attempts = attempt; waited_ms = waited; last_error = e }
        else begin
          let d = delay_ms p ~rng ~attempt in
          go (attempt + 1) (waited +. d)
        end
  in
  go 1 0.0
