(* Preallocated log-bucketed histogram of durations in nanoseconds.

   Bucket [i] covers [lo_ns * ratio^i, lo_ns * ratio^(i+1)), so every
   bucket is 1 % wide and recording a sample never allocates: a growing
   list of samples would allocate per op and inflate the heap metrics the
   benchmark reports. Quantiles interpolate by rank inside the bucket, so
   they do not snap to bucket edges. *)

let ratio = 1.01
let log_ratio = log ratio
let lo_ns = 10.0

(* 10 ns .. ~1.7e12 ns (about half an hour) *)
let buckets = 2600

type t = { counts : int array; mutable n : int }

let create () = { counts = Array.make buckets 0; n = 0 }

let clear t =
  Array.fill t.counts 0 buckets 0;
  t.n <- 0

let bucket_of ns =
  if ns <= lo_ns then 0 else min (buckets - 1) (int_of_float (log (ns /. lo_ns) /. log_ratio))

let add t ns =
  let ns = float_of_int ns in
  let i = bucket_of ns in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1

let count t = t.n

(* The [q]-quantile (0 < q < 1) in nanoseconds; 0 when empty. *)
let quantile t q =
  if t.n = 0 then 0.0
  else begin
    let rank = q *. float_of_int t.n in
    let rec go i seen =
      let c = t.counts.(i) in
      if i = buckets - 1 || float_of_int (seen + c) >= rank then begin
        let lo = lo_ns *. (ratio ** float_of_int i) in
        let within = if c = 0 then 0.5 else (rank -. float_of_int seen) /. float_of_int c in
        lo +. (lo *. (ratio -. 1.0) *. Float.min 1.0 (Float.max 0.0 within))
      end
      else go (i + 1) (seen + c)
    in
    go 0 0
  end
