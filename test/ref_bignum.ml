(* Reference helpers around Scion_crypto.Bignum for the crypto suites.

   lib/ keeps only the arithmetic Modp and Schnorr run on. The helpers the
   tests need on top of it (int and hex conversions, shifts, exact
   quotients, and the generic square-and-multiply that the Modp
   conformance suite compares its fast ladders against) live here, built
   from nothing but Bignum's public interface. *)

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

let modpow b e m =
  let result = ref (Bignum.modulo Bignum.one m) and acc = ref (Bignum.modulo b m) in
  for i = 0 to bit_length e - 1 do
    if bit e i then result := Bignum.modulo (Bignum.mul !result !acc) m;
    acc := Bignum.modulo (Bignum.mul !acc !acc) m
  done;
  !result

let of_hex s = Bignum.of_bytes_be (Hex.decode (if String.length s mod 2 = 1 then "0" ^ s else s))
let to_hex a = Hex.encode (Bignum.to_bytes_be a)

(* Field elements through their fixed 32-byte encoding. *)
let felem_of_bignum x =
  match Modp.of_bytes (Bignum.to_bytes_be ~width:32 (Bignum.modulo x Modp.p)) with
  | Some f -> f
  | None -> invalid_arg "Ref_bignum.felem_of_bignum: not reduced"

let bignum_of_felem f = Bignum.of_bytes_be (Modp.to_bytes f)
