(* Reference helpers around Scion_crypto.Bignum for the crypto suites.

   lib/ keeps only the arithmetic Modp and Schnorr run on. The helpers the
   tests need on top of it (int and hex conversions, shifts, exact
   quotients, and the generic modular powers that the Modp conformance
   suite compares its fast ladders against) live here, built from nothing
   but Bignum's public interface. A power reduces every product with one
   Barrett reduction, so its cost is its number of products. *)

open Scion_crypto

let equal a b = Bignum.compare a b = 0

(* Limbs are little-endian base 2^16. *)
let to_int a =
  Array.fold_right
    (fun limb v ->
      if v > (max_int - limb) lsr 16 then invalid_arg "Ref_bignum.to_int: overflow";
      (v lsl 16) lor limb)
    (Bignum.limbs a) 0

let bit a i =
  let l = Bignum.limbs a in
  i / 16 < Array.length l && l.(i / 16) land (1 lsl (i mod 16)) <> 0

let is_odd a = bit a 0

let bit_length a =
  let l = Bignum.limbs a in
  let n = Array.length l in
  let rec msb v acc = if v = 0 then acc else msb (v lsr 1) (acc + 1) in
  if n = 0 then 0 else ((n - 1) * 16) + msb l.(n - 1) 0

let pow2 n = Bignum.of_limbs (Array.init ((n / 16) + 1) (fun i -> if i = n / 16 then 1 lsl (n mod 16) else 0))
let shift_left a n = Bignum.mul a (pow2 n)

(* Restoring long division, one bit of [a] at a time. *)
let divmod a b =
  if Bignum.is_zero b then raise Division_by_zero;
  let q = ref Bignum.zero and r = ref Bignum.zero in
  for i = bit_length a - 1 downto 0 do
    r := Bignum.add (shift_left !r 1) (if bit a i then Bignum.one else Bignum.zero);
    q := shift_left !q 1;
    if Bignum.compare !r b >= 0 then begin
      r := Bignum.sub !r b;
      q := Bignum.add !q Bignum.one
    end
  done;
  (!q, !r)

let shift_right a n = fst (divmod a (pow2 n))

(* Barrett reduction in base 2^16. For a modulus of k limbs,
   mu = floor(2^(32k) / m) is computed once with [divmod]. Then for x < m^2
   the estimate q = floor(floor(x / 2^(16(k-1))) * mu / 2^(16(k+1))) is the
   true quotient or at most two less, so x - q*m needs at most two
   subtractions of m. Both shifts drop whole limbs. *)
type barrett = { modulus : Bignum.t; k : int; mu : Bignum.t }

let barrett m =
  let k = Array.length (Bignum.limbs m) in
  if k = 0 then raise Division_by_zero;
  { modulus = m; k; mu = fst (divmod (pow2 (32 * k)) m) }

let drop_limbs x n =
  let l = Bignum.limbs x in
  let len = Array.length l - n in
  if len <= 0 then Bignum.zero else Bignum.of_limbs (Array.sub l n len)

let reduce { modulus; k; mu } x =
  if Array.length (Bignum.limbs x) > 2 * k then invalid_arg "Ref_bignum.reduce: x >= 2^(32k)";
  let q = drop_limbs (Bignum.mul (drop_limbs x (k - 1)) mu) (k + 1) in
  let r = ref (Bignum.sub x (Bignum.mul q modulus)) in
  while Bignum.compare !r modulus >= 0 do
    r := Bignum.sub !r modulus
  done;
  !r

let mulmod a b red = reduce red (Bignum.mul a b)

(* Left to right in 4-bit windows: the powers b^0 .. b^15 first, then per
   window four squarings and at most one product. *)
let modpow b e m =
  let red = barrett m in
  let mulmod a b = mulmod a b red in
  let powers = Array.make 16 (Bignum.modulo Bignum.one m) in
  powers.(1) <- Bignum.modulo b m;
  for j = 2 to 15 do
    powers.(j) <- mulmod powers.(j - 1) powers.(1)
  done;
  let window i =
    List.fold_left (fun acc k -> (acc lsl 1) lor if bit e ((4 * i) + k) then 1 else 0) 0 [ 3; 2; 1; 0 ]
  in
  let windows = (bit_length e + 3) / 4 in
  if windows = 0 then powers.(0)
  else begin
    let result = ref powers.(window (windows - 1)) in
    for i = windows - 2 downto 0 do
      for _ = 1 to 4 do
        result := mulmod !result !result
      done;
      let w = window i in
      if w <> 0 then result := mulmod !result powers.(w)
    done;
    !result
  end

(* A fixed base's powers b^(2^i) mod m for i < [bits], by repeated
   squaring; [fixed_pow] then multiplies the entries of the exponent's set
   bits, one product per set bit and no squaring. *)
type fixed_base = { squares : Bignum.t array; red : barrett }

let fixed_base b m ~bits =
  let red = barrett m in
  let squares = Array.make bits (Bignum.modulo b m) in
  for i = 1 to bits - 1 do
    squares.(i) <- mulmod squares.(i - 1) squares.(i - 1) red
  done;
  { squares; red }

let fixed_pow { squares; red } e =
  if bit_length e > Array.length squares then invalid_arg "Ref_bignum.fixed_pow: exponent too wide";
  let result = ref (Bignum.modulo Bignum.one red.modulus) in
  Array.iteri (fun i sq -> if bit e i then result := mulmod !result sq red) squares;
  !result

let of_hex s = Bignum.of_bytes_be (Hex.decode (if String.length s mod 2 = 1 then "0" ^ s else s))
let to_hex a = Hex.encode (Bignum.to_bytes_be a)

(* Field elements through their fixed 32-byte encoding. *)
let felem_of_bignum x =
  match Modp.of_bytes (Bignum.to_bytes_be ~width:32 (Bignum.modulo x Modp.p)) with
  | Some f -> f
  | None -> invalid_arg "Ref_bignum.felem_of_bignum: not reduced"

let bignum_of_felem f = Bignum.of_bytes_be (Modp.to_bytes f)
