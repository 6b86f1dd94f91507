(* p = 2^256 - c with c = 2^32 + 977, so 2^256 === c (mod p): reduction of a
   512-bit product is a couple of cheap "fold the high part times c" passes
   plus a conditional subtract, instead of a generic long division.

   Field elements are flat 11-limb radix-2^24 int arrays, always fully
   reduced below p. The radix is chosen so that (a) an 11x11 schoolbook
   product needs only 121 limb multiplications whose column sums stay far
   inside OCaml's 63-bit native int, and (b) limbs align exactly with bytes
   (3 bytes per limb), keeping the 32-byte codec branch-free. This is the
   inner loop of every Schnorr signature in the repo, so the hot helpers use
   unsafe array accesses over fixed-size scratch buffers whose indices are
   all statically in range. *)

let dlimbs = 11
let dbits = 24
let dmask = 0xFFFFFF

(* Exponent-side constants stay in Bignum's radix 2^16: the secp256k1 field
   prime p = FFFF...FFFE FFFFFC2F ... *)
let p_limbs16 =
  [| 0xFC2F; 0xFFFF; 0xFFFE; 0xFFFF; 0xFFFF; 0xFFFF; 0xFFFF; 0xFFFF;
     0xFFFF; 0xFFFF; 0xFFFF; 0xFFFF; 0xFFFF; 0xFFFF; 0xFFFF; 0xFFFF |]

(* ... and p - 1 = 2^256 - (c + 1), the Schnorr exponent modulus. *)
let p1_limbs16 = Array.mapi (fun i v -> if i = 0 then v - 1 else v) p_limbs16

let p = Bignum.of_limbs p_limbs16

type felem = int array (* length 11, radix 2^24, < p *)

(* p in radix 2^24, repacked from the base-2^16 limbs so the two encodings
   can never disagree; limb 10 only carries bits 240..255, so a canonical
   felem always has its top limb below 2^16. *)
let p24 =
  let out = Array.make dlimbs 0 in
  Array.iteri
    (fun i l ->
      let bit = 16 * i in
      let limb = bit / dbits and sh = bit mod dbits in
      out.(limb) <- out.(limb) lor ((l lsl sh) land dmask);
      if sh > dbits - 16 && limb + 1 < dlimbs then
        out.(limb + 1) <- out.(limb + 1) lor (l lsr (dbits - sh)))
    p_limbs16;
  out

(* scion-lint: allow global-state -- a constant: felem is abstract outside this module and every in-place write here targets a fresh copy or scratch array, never [zero] *)
let zero = Array.make dlimbs 0
let one = Array.init dlimbs (fun i -> if i = 0 then 1 else 0)

let equal (a : felem) (b : felem) =
  let rec go i = i >= dlimbs || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let cmp24 a m =
  let rec go i = if i < 0 then 0 else if a.(i) <> m.(i) then compare a.(i) m.(i) else go (i - 1) in
  go (dlimbs - 1)

(* a <- a - m; caller guarantees a >= m *)
let sub24_in_place a m =
  let borrow = ref 0 in
  for i = 0 to dlimbs - 1 do
    let d = a.(i) - m.(i) - !borrow in
    if d < 0 then begin
      a.(i) <- d + (1 lsl dbits);
      borrow := 1
    end
    else begin
      a.(i) <- d;
      borrow := 0
    end
  done

(* Reduce a scratch accumulator [w] (length [len] >= 13, column values below
   ~2^55) to a fresh canonical felem. One carry pass turns columns into
   limbs, then high limbs fold down through 2^264 === 2^8*c (limb h at
   position 11+j contributes h*250112 at limb j and h*2^16 at limb j+1),
   the bit-256 overhang of limb 10 folds through 2^256 === c, and at most
   two conditional subtracts finish the job. *)
let reduce_scratch w len =
  let carry = ref 0 in
  for k = 0 to len - 1 do
    let t = Array.unsafe_get w k + !carry in
    Array.unsafe_set w k (t land dmask);
    carry := t asr dbits
  done;
  (* columns < 2^55 so the final carry is below 2^31 < one limb's worth
     beyond the last column; callers size w with two spare limbs. *)
  let active = ref (len - 1) in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    for j = dlimbs to !active do
      let h = w.(j) in
      if h <> 0 then begin
        w.(j) <- 0;
        w.(j - dlimbs) <- w.(j - dlimbs) + (h * 250112);
        w.(j - dlimbs + 1) <- w.(j - dlimbs + 1) + (h lsl 16)
      end
    done;
    (* fold the bits of limb 10 above position 255: 2^256 === 2^32 + 977 *)
    let h = w.(10) asr 16 in
    if h <> 0 then begin
      w.(10) <- w.(10) land 0xFFFF;
      w.(0) <- w.(0) + (h * 977);
      w.(1) <- w.(1) + (h lsl 8)
    end;
    let carry = ref 0 in
    for k = 0 to min (dlimbs + 2) !active do
      let t = w.(k) + !carry in
      w.(k) <- t land dmask;
      carry := t asr dbits;
      if k >= dlimbs && w.(k) <> 0 then continue_ := true
    done;
    if !carry <> 0 then begin
      w.(dlimbs + 3) <- w.(dlimbs + 3) + !carry;
      continue_ := true
    end;
    if w.(10) asr 16 <> 0 then continue_ := true;
    active := dlimbs + 3
  done;
  let out = Array.sub w 0 dlimbs in
  if cmp24 out p24 >= 0 then sub24_in_place out p24;
  if cmp24 out p24 >= 0 then sub24_in_place out p24;
  out

let scratch_len = 24 (* 21 product columns + carry spill + fold headroom *)

let mul (a : felem) (b : felem) : felem =
  let w = Array.make scratch_len 0 in
  for i = 0 to dlimbs - 1 do
    let ai = Array.unsafe_get a i in
    if ai <> 0 then
      for j = 0 to dlimbs - 1 do
        let k = i + j in
        Array.unsafe_set w k (Array.unsafe_get w k + (ai * Array.unsafe_get b j))
      done
  done;
  reduce_scratch w scratch_len

(* Dedicated squaring: the 55 off-diagonal products are shared (doubled), so
   a square costs ~half a general multiply. The 4-bit exponentiation ladders
   are ~80% squarings, making this the single hottest function in signing
   and verification. *)
let sqr (a : felem) : felem =
  let w = Array.make scratch_len 0 in
  for i = 0 to dlimbs - 1 do
    let ai = Array.unsafe_get a i in
    if ai <> 0 then begin
      let k = 2 * i in
      Array.unsafe_set w k (Array.unsafe_get w k + (ai * ai));
      let ai2 = 2 * ai in
      for j = i + 1 to dlimbs - 1 do
        let k = i + j in
        Array.unsafe_set w k (Array.unsafe_get w k + (ai2 * Array.unsafe_get a j))
      done
    end
  done;
  reduce_scratch w scratch_len

(* --- Bignum interop (cold: key setup, codec, tests) -------------------- *)

let of_limbs16_any l =
  (* repack little-endian base-2^16 limbs of any length into a radix-24
     scratch, then reduce *)
  let n = Array.length l in
  let len = max scratch_len (((n * 16) / dbits) + 3) in
  let w = Array.make len 0 in
  for i = 0 to n - 1 do
    let bit = 16 * i in
    let limb = bit / dbits and sh = bit mod dbits in
    w.(limb) <- w.(limb) + ((l.(i) lsl sh) land dmask);
    if sh > dbits - 16 then w.(limb + 1) <- w.(limb + 1) + (l.(i) lsr (dbits - sh))
  done;
  reduce_scratch w len

let of_bignum x = of_limbs16_any (Bignum.limbs x)

let of_int v =
  assert (v >= 0);
  of_bignum (Bignum.of_int v)

(* --- exponent-field reduction ------------------------------------------ *)

(* Fold the base-2^16 limbs of [t] above position 16 back into the low half
   using 2^256 === c + 1 (mod p - 1), repeating until the top clears, then
   conditionally subtract. Replaces the bit-by-bit Bignum.modulo on the
   Schnorr signing/verification path, where every challenge and every
   s-component needs an exponent-field reduction. A wide (e.g. 32-limb)
   tail folds limb-wise — limb h at position 16 + i contributes h*978 at
   limb i and h at limb i + 2 — so no intermediate leaves the 63-bit int
   range; once the tail fits in a single int one more pass clears it. *)
let fold16_tail t len0 =
  let size = max (len0 + 2) 20 in
  let t' = Array.make size 0 in
  Array.blit t 0 t' 0 len0;
  let t = t' in
  let len = ref len0 in
  while !len > 16 do
    if !len > 19 then begin
      let hi_len = !len - 16 in
      for i = 0 to hi_len - 1 do
        let h = t.(16 + i) in
        t.(16 + i) <- 0;
        t.(i) <- t.(i) + (h * 978);
        t.(i + 2) <- t.(i + 2) + h
      done
    end
    else begin
      let v = ref 0 in
      for i = !len - 1 downto 16 do
        v := (!v lsl 16) + t.(i);
        t.(i) <- 0
      done;
      let vk = !v * 978 in
      t.(0) <- t.(0) + (vk land 0xFFFF);
      t.(1) <- t.(1) + ((vk lsr 16) land 0xFFFF);
      t.(2) <- t.(2) + (vk lsr 32) + (!v land 0xFFFF);
      t.(3) <- t.(3) + ((!v lsr 16) land 0xFFFF);
      t.(4) <- t.(4) + (!v lsr 32)
    end;
    let carry = ref 0 in
    let high = ref 0 in
    for i = 0 to size - 1 do
      let s = t.(i) + !carry in
      t.(i) <- s land 0xFFFF;
      carry := s lsr 16;
      if t.(i) <> 0 then high := i
    done;
    assert (!carry = 0);
    len := max (!high + 1) 16
  done;
  let cmp16 a m =
    let rec go i = if i < 0 then 0 else if a.(i) <> m.(i) then compare a.(i) m.(i) else go (i - 1) in
    go 15
  in
  let sub16 a m =
    let borrow = ref 0 in
    for i = 0 to 15 do
      let d = a.(i) - m.(i) - !borrow in
      if d < 0 then begin
        a.(i) <- d + 0x10000;
        borrow := 1
      end
      else begin
        a.(i) <- d;
        borrow := 0
      end
    done
  in
  let out = Array.sub t 0 16 in
  if cmp16 out p1_limbs16 >= 0 then sub16 out p1_limbs16;
  if cmp16 out p1_limbs16 >= 0 then sub16 out p1_limbs16;
  out

let reduce_exponent x =
  let l = Bignum.limbs x in
  Bignum.of_limbs (fold16_tail l (Array.length l))

(* --- exponentiation ----------------------------------------------------- *)

(* 4-bit windowed exponentiation: precompute b^0..b^15, then one pass over
   the exponent nibbles with four squarings per nibble. Quarter the
   multiplies of plain square-and-multiply for 256-bit exponents. *)
let pow (b : felem) (e : Bignum.t) : felem =
  let el = Bignum.limbs e in
  let n = Array.length el in
  if n = 0 then Array.copy one
  else begin
    let table = Array.make 16 one in
    table.(1) <- b;
    for i = 2 to 15 do
      table.(i) <- mul table.(i - 1) b
    done;
    let nib_count = n * 4 in
    let nibble j = (el.(j / 4) lsr ((j mod 4) * 4)) land 0xF in
    let top = ref (nib_count - 1) in
    while !top > 0 && nibble !top = 0 do
      decr top
    done;
    let acc = ref table.(nibble !top) in
    for j = !top - 1 downto 0 do
      acc := sqr !acc;
      acc := sqr !acc;
      acc := sqr !acc;
      acc := sqr !acc;
      let d = nibble j in
      if d <> 0 then acc := mul !acc table.(d)
    done;
    !acc
  end

(* --- codec -------------------------------------------------------------- *)

let to_bytes (x : felem) =
  (* 3 bytes per limb: byte i (big-endian) is bits 8*(31-i).. which sit
     wholly inside limb (31-i)/3 *)
  String.init 32 (fun i ->
      let bitpos = 8 * (31 - i) in
      (x.(bitpos / dbits) lsr (bitpos mod dbits)) land 0xFF |> Char.chr)

let of_bytes s =
  if String.length s <> 32 then None
  else begin
    let out = Array.make dlimbs 0 in
    for i = 0 to 31 do
      let bitpos = 8 * (31 - i) in
      out.(bitpos / dbits) <-
        out.(bitpos / dbits) lor (Char.code s.[i] lsl (bitpos mod dbits))
    done;
    if cmp24 out p24 >= 0 then None else Some out
  end
