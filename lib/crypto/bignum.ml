(* Little-endian base-2^16 limbs with no trailing (most-significant) zeros;
   the empty array represents zero. *)

type t = int array

let base_bits = 16
let base = 1 lsl base_bits
let base_mask = base - 1

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let zero = [||]
let one = [| 1 |]

let of_int v =
  assert (v >= 0);
  let rec limbs v = if v = 0 then [] else (v land base_mask) :: limbs (v lsr base_bits) in
  Array.of_list (limbs v)

let is_zero a = Array.length a = 0

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let bit_length a =
  if is_zero a then 0
  else begin
    let top = a.(Array.length a - 1) in
    let rec msb v acc = if v = 0 then acc else msb (v lsr 1) (acc + 1) in
    ((Array.length a - 1) * base_bits) + msb top 0
  end

let bit a i =
  let limb = i / base_bits in
  if limb >= Array.length a then false else a.(limb) land (1 lsl (i mod base_bits)) <> 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  normalize out

let sub a b =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize out

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let v = out.(i + j) + (a.(i) * b.(j)) + !carry in
        out.(i + j) <- v land base_mask;
        carry := v lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let v = out.(!k) + !carry in
        out.(!k) <- v land base_mask;
        carry := v lsr base_bits;
        incr k
      done
    done;
    normalize out
  end

let shift_left a n =
  if is_zero a || n = 0 then a
  else begin
    let limb_shift = n / base_bits and bit_shift = n mod base_bits in
    let la = Array.length a in
    let out = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      out.(i + limb_shift) <- out.(i + limb_shift) lor (v land base_mask);
      out.(i + limb_shift + 1) <- out.(i + limb_shift + 1) lor (v lsr base_bits)
    done;
    normalize out
  end

(* Binary long division keeping only the remainder: adequate because
   reductions by a generic modulus are rare (key derivation), while the hot
   group arithmetic uses Modp's special-form reduction. *)
let modulo a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then a
  else begin
    let r = ref zero in
    for i = bit_length a - 1 downto 0 do
      r := shift_left !r 1;
      if bit a i then r := add !r one;
      if compare !r b >= 0 then r := sub !r b
    done;
    !r
  end

let of_bytes_be s =
  let len = String.length s in
  let nlimbs = (len + 1) / 2 in
  let out = Array.make nlimbs 0 in
  for i = 0 to len - 1 do
    (* byte i (big-endian) contributes to bit position 8*(len-1-i) *)
    let bitpos = 8 * (len - 1 - i) in
    out.(bitpos / base_bits) <-
      out.(bitpos / base_bits) lor (Char.code s.[i] lsl (bitpos mod base_bits))
  done;
  normalize out

let to_bytes_be ?width a =
  let nbytes = (bit_length a + 7) / 8 in
  let w = match width with None -> max nbytes 1 | Some w -> w in
  if nbytes > w then invalid_arg "Bignum.to_bytes_be: value too large for width";
  String.init w (fun i ->
      let bitpos = 8 * (w - 1 - i) in
      let limb = bitpos / base_bits in
      if limb >= Array.length a then '\x00'
      else Char.chr ((a.(limb) lsr (bitpos mod base_bits)) land 0xFF))

let limbs a = Array.copy a
let of_limbs a = normalize (Array.copy a)
