let mean xs =
  assert (Array.length xs > 0);
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let min_max xs =
  assert (Array.length xs > 0);
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let sorted_copy xs =
  let ys = Array.copy xs in
  (* Float.compare, not polymorphic compare: the polymorphic version orders
     nan via its bit pattern and boxes every element on the way through. *)
  Array.sort Float.compare ys;
  ys

let percentile xs p =
  assert (Array.length xs > 0);
  assert (p >= 0.0 && p <= 100.0);
  let ys = sorted_copy xs in
  let n = Array.length ys in
  if n = 1 then ys.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then ys.(lo)
    else
      let frac = rank -. float_of_int lo in
      ys.(lo) +. (frac *. (ys.(hi) -. ys.(lo)))

let median xs = percentile xs 50.0

type boxplot = {
  low_whisker : float;
  q1 : float;
  med : float;
  q3 : float;
  high_whisker : float;
}

let boxplot xs =
  {
    low_whisker = percentile xs 5.0;
    q1 = percentile xs 25.0;
    med = percentile xs 50.0;
    q3 = percentile xs 75.0;
    high_whisker = percentile xs 95.0;
  }

type cdf = (float * float) list

let cdf xs =
  let ys = sorted_copy xs in
  let n = Array.length ys in
  let points = ref [] in
  for i = n - 1 downto 0 do
    points := (ys.(i), float_of_int (i + 1) /. float_of_int n) :: !points
  done;
  (* Collapse duplicate values, keeping the highest fraction for each. *)
  let rec dedup = function
    | (v1, _) :: ((v2, _) :: _ as rest) when Float.equal v1 v2 -> dedup rest
    | p :: rest -> p :: dedup rest
    | [] -> []
  in
  dedup !points

let resample_cdf c n =
  let arr = Array.of_list c in
  let len = Array.length arr in
  if len <= n || n < 2 then c
  else
    let out = ref [] in
    for i = n - 1 downto 0 do
      let idx = i * (len - 1) / (n - 1) in
      out := arr.(idx) :: !out
    done;
    !out
