(* The splitmix64 state lives in 8 bytes rather than a mutable [int64]
   field: [Bytes.get_int64_le]/[set_int64_le] read and write it unboxed,
   so advancing the stream allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

let[@inline] next t =
  let state = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 state;
  mix64 state

let of_label seed label =
  let h = ref seed in
  String.iter
    (fun c -> h := mix64 (Int64.add (Int64.mul !h 31L) (Int64.of_int (Char.code c))))
    label;
  create (mix64 !h)

let split t = create (next t)

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value fits OCaml's native non-negative int range. *)
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  r mod bound

let float t bound =
  (* 53 random bits scaled into [0, 1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next t) 1L = 1L

(* Both retry loops redraw only on a uniform of (almost) zero, whose log
   would be infinite; top-level recursion keeps each call closure-free. *)
let rec gaussian t ~mean ~stddev =
  let u1 = float t 1.0 in
  if u1 <= 1e-300 then gaussian t ~mean ~stddev
  else
    let u2 = float t 1.0 in
    mean +. (stddev *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let rec exponential t ~rate =
  let u = float t 1.0 in
  if u <= 1e-300 then exponential t ~rate else -.log u /. rate

let lognormal t ~mu ~sigma = exp (gaussian t ~mean:mu ~stddev:sigma)

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (Int64.to_int (Int64.logand (next t) 0xFFL)))
  done;
  b
