(* p = 2^256 - c with c = 2^32 + 977, so 2^256 === c (mod p): a 512-bit
   product reduces without long division. Its one reduction routine
   ([reduce]) makes one carry pass over the product columns, one descending
   fold of the limbs above 2^264 through 2^264 === 2^8 * c, a short settle
   loop for the bits between 2^256 and 2^264, and a single conditional
   subtract of p.

   Field elements are flat 11-limb radix-2^24 int arrays, always fully
   reduced below p. The radix is chosen so that (a) an 11x11 schoolbook
   product needs only 121 limb multiplications whose column sums stay far
   inside OCaml's 63-bit native int, and (b) limbs align exactly with bytes
   (3 bytes per limb), keeping the 32-byte codec branch-free. This is the
   inner loop of every Schnorr signature in the repo, so [mul] and [sqr]
   are straight-line code over limbs loaded once, allocate their columns
   and their result as array literals (inline minor allocations, no C
   call) and use unsafe accesses at indices that are all statically in
   range. *)

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

(* Reduce the 21 product columns in [w.(0..20)] (each below 2^53; [w] has
   one spare slot) to a fresh canonical felem.

   - One carry pass turns the columns into 24-bit limbs; the last carry
     lands in limb 21.
   - One descending fold clears limbs 21..11: limb h at position 11 + j
     stands for h * 2^264 * 2^(24j), and 2^264 === 2^8 * c = 2^40 + 250112,
     so it adds h * 250112 to limb j and h * 2^16 to limb j + 1. Folding
     from the top down lets limb 21's spill into limb 11 be folded in the
     same pass.
   - The settle loop carries limbs 0..10 and folds the bits of limb 10
     above position 255 through 2^256 === c = 2^32 + 977 (h * 977 at limb
     0, h * 2^8 at limb 1), until nothing overhangs. The value is then
     below 2^256 < 2p.
   - One conditional subtract: v >= p exactly when v + c carries into bit
     256, and then v - p is v + c with that bit dropped. *)
let reduce (w : int array) : felem =
  let carry = ref 0 in
  for k = 0 to 20 do
    let t = Array.unsafe_get w k + !carry in
    Array.unsafe_set w k (t land dmask);
    carry := t asr dbits
  done;
  Array.unsafe_set w 21 !carry;
  for j = 21 downto dlimbs do
    let h = Array.unsafe_get w j and lo = j - dlimbs in
    Array.unsafe_set w lo (Array.unsafe_get w lo + (h * 250112));
    Array.unsafe_set w (lo + 1) (Array.unsafe_get w (lo + 1) + (h lsl 16))
  done;
  let overhang = ref 1 in
  while !overhang <> 0 do
    let carry = ref 0 in
    for k = 0 to dlimbs - 2 do
      let t = Array.unsafe_get w k + !carry in
      Array.unsafe_set w k (t land dmask);
      carry := t asr dbits
    done;
    let top = Array.unsafe_get w 10 + !carry in
    let h = top asr 16 in
    Array.unsafe_set w 10 (top land 0xFFFF);
    Array.unsafe_set w 0 (Array.unsafe_get w 0 + (h * 977));
    Array.unsafe_set w 1 (Array.unsafe_get w 1 + (h lsl 8));
    overhang := h
  done;
  let w0 = Array.unsafe_get w 0 and w1 = Array.unsafe_get w 1 and w2 = Array.unsafe_get w 2
  and w3 = Array.unsafe_get w 3 and w4 = Array.unsafe_get w 4 and w5 = Array.unsafe_get w 5
  and w6 = Array.unsafe_get w 6 and w7 = Array.unsafe_get w 7 and w8 = Array.unsafe_get w 8
  and w9 = Array.unsafe_get w 9 and w10 = Array.unsafe_get w 10 in
  let t0 = w0 + 977 in
  let t1 = w1 + 256 + (t0 asr dbits) in
  let t2 = w2 + (t1 asr dbits) in
  let t3 = w3 + (t2 asr dbits) in
  let t4 = w4 + (t3 asr dbits) in
  let t5 = w5 + (t4 asr dbits) in
  let t6 = w6 + (t5 asr dbits) in
  let t7 = w7 + (t6 asr dbits) in
  let t8 = w8 + (t7 asr dbits) in
  let t9 = w9 + (t8 asr dbits) in
  let t10 = w10 + (t9 asr dbits) in
  if t10 asr 16 = 0 then [| w0; w1; w2; w3; w4; w5; w6; w7; w8; w9; w10 |]
  else
    [| t0 land dmask; t1 land dmask; t2 land dmask; t3 land dmask; t4 land dmask;
       t5 land dmask; t6 land dmask; t7 land dmask; t8 land dmask; t9 land dmask;
       t10 land 0xFFFF |]

(* The product columns are written out: every limb is loaded once, each
   column is one straight-line sum of its limb products (each below 2^48,
   so a column stays below 2^52), and the 21 columns plus a zero slot for
   the top carry go to [reduce] as one array literal, allocated inline on
   the minor heap with no C call. *)
let mul (a : felem) (b : felem) : felem =
  let a0 = Array.unsafe_get a 0
  and a1 = Array.unsafe_get a 1
  and a2 = Array.unsafe_get a 2
  and a3 = Array.unsafe_get a 3
  and a4 = Array.unsafe_get a 4
  and a5 = Array.unsafe_get a 5
  and a6 = Array.unsafe_get a 6
  and a7 = Array.unsafe_get a 7
  and a8 = Array.unsafe_get a 8
  and a9 = Array.unsafe_get a 9
  and a10 = Array.unsafe_get a 10 in
  let b0 = Array.unsafe_get b 0
  and b1 = Array.unsafe_get b 1
  and b2 = Array.unsafe_get b 2
  and b3 = Array.unsafe_get b 3
  and b4 = Array.unsafe_get b 4
  and b5 = Array.unsafe_get b 5
  and b6 = Array.unsafe_get b 6
  and b7 = Array.unsafe_get b 7
  and b8 = Array.unsafe_get b 8
  and b9 = Array.unsafe_get b 9
  and b10 = Array.unsafe_get b 10 in
  reduce
    [|
      a0 * b0;
      (a0 * b1) + (a1 * b0);
      (a0 * b2) + (a1 * b1) + (a2 * b0);
      (a0 * b3) + (a1 * b2) + (a2 * b1) + (a3 * b0);
      (a0 * b4) + (a1 * b3) + (a2 * b2) + (a3 * b1) + (a4 * b0);
      (a0 * b5) + (a1 * b4) + (a2 * b3) + (a3 * b2) + (a4 * b1) + (a5 * b0);
      (a0 * b6) + (a1 * b5) + (a2 * b4) + (a3 * b3) + (a4 * b2) + (a5 * b1) + (a6 * b0);
      (a0 * b7) + (a1 * b6) + (a2 * b5) + (a3 * b4) + (a4 * b3) + (a5 * b2) + (a6 * b1) + (a7 * b0);
      (a0 * b8) + (a1 * b7) + (a2 * b6) + (a3 * b5) + (a4 * b4) + (a5 * b3) + (a6 * b2) +
        (a7 * b1) + (a8 * b0);
      (a0 * b9) + (a1 * b8) + (a2 * b7) + (a3 * b6) + (a4 * b5) + (a5 * b4) + (a6 * b3) +
        (a7 * b2) + (a8 * b1) + (a9 * b0);
      (a0 * b10) + (a1 * b9) + (a2 * b8) + (a3 * b7) + (a4 * b6) + (a5 * b5) + (a6 * b4) +
        (a7 * b3) + (a8 * b2) + (a9 * b1) + (a10 * b0);
      (a1 * b10) + (a2 * b9) + (a3 * b8) + (a4 * b7) + (a5 * b6) + (a6 * b5) + (a7 * b4) +
        (a8 * b3) + (a9 * b2) + (a10 * b1);
      (a2 * b10) + (a3 * b9) + (a4 * b8) + (a5 * b7) + (a6 * b6) + (a7 * b5) + (a8 * b4) +
        (a9 * b3) + (a10 * b2);
      (a3 * b10) + (a4 * b9) + (a5 * b8) + (a6 * b7) + (a7 * b6) + (a8 * b5) + (a9 * b4) +
        (a10 * b3);
      (a4 * b10) + (a5 * b9) + (a6 * b8) + (a7 * b7) + (a8 * b6) + (a9 * b5) + (a10 * b4);
      (a5 * b10) + (a6 * b9) + (a7 * b8) + (a8 * b7) + (a9 * b6) + (a10 * b5);
      (a6 * b10) + (a7 * b9) + (a8 * b8) + (a9 * b7) + (a10 * b6);
      (a7 * b10) + (a8 * b9) + (a9 * b8) + (a10 * b7);
      (a8 * b10) + (a9 * b9) + (a10 * b8);
      (a9 * b10) + (a10 * b9);
      a10 * b10;
      0;
    |]

(* Dedicated squaring: the 55 off-diagonal products are shared (doubled
   through [d_j = 2 * a_j]), so a square costs ~half a general multiply.
   Half of every comb power is squarings, making this one of the hottest
   functions in verification. *)
let sqr (a : felem) : felem =
  let a0 = Array.unsafe_get a 0
  and a1 = Array.unsafe_get a 1
  and a2 = Array.unsafe_get a 2
  and a3 = Array.unsafe_get a 3
  and a4 = Array.unsafe_get a 4
  and a5 = Array.unsafe_get a 5
  and a6 = Array.unsafe_get a 6
  and a7 = Array.unsafe_get a 7
  and a8 = Array.unsafe_get a 8
  and a9 = Array.unsafe_get a 9
  and a10 = Array.unsafe_get a 10 in
  let d1 = 2 * a1
  and d2 = 2 * a2
  and d3 = 2 * a3
  and d4 = 2 * a4
  and d5 = 2 * a5
  and d6 = 2 * a6
  and d7 = 2 * a7
  and d8 = 2 * a8
  and d9 = 2 * a9
  and d10 = 2 * a10 in
  reduce
    [|
      a0 * a0;
      a0 * d1;
      (a0 * d2) + (a1 * a1);
      (a0 * d3) + (a1 * d2);
      (a0 * d4) + (a1 * d3) + (a2 * a2);
      (a0 * d5) + (a1 * d4) + (a2 * d3);
      (a0 * d6) + (a1 * d5) + (a2 * d4) + (a3 * a3);
      (a0 * d7) + (a1 * d6) + (a2 * d5) + (a3 * d4);
      (a0 * d8) + (a1 * d7) + (a2 * d6) + (a3 * d5) + (a4 * a4);
      (a0 * d9) + (a1 * d8) + (a2 * d7) + (a3 * d6) + (a4 * d5);
      (a0 * d10) + (a1 * d9) + (a2 * d8) + (a3 * d7) + (a4 * d6) + (a5 * a5);
      (a1 * d10) + (a2 * d9) + (a3 * d8) + (a4 * d7) + (a5 * d6);
      (a2 * d10) + (a3 * d9) + (a4 * d8) + (a5 * d7) + (a6 * a6);
      (a3 * d10) + (a4 * d9) + (a5 * d8) + (a6 * d7);
      (a4 * d10) + (a5 * d9) + (a6 * d8) + (a7 * a7);
      (a5 * d10) + (a6 * d9) + (a7 * d8);
      (a6 * d10) + (a7 * d9) + (a8 * a8);
      (a7 * d10) + (a8 * d9);
      (a8 * d10) + (a9 * a9);
      a9 * d10;
      a10 * a10;
      0;
    |]

(* A non-negative OCaml int is below 2^62 < p, so it is already canonical:
   three limbs, the top one below 2^14. *)
let of_int v =
  assert (v >= 0);
  let out = Array.make dlimbs 0 in
  out.(0) <- v land dmask;
  out.(1) <- (v lsr dbits) land dmask;
  out.(2) <- v lsr (2 * dbits);
  out

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

(* --- fixed-base comb ------------------------------------------------------ *)

(* Lim-Lee comb with [comb_teeth] rows of [comb_cols] bits: a 256-bit
   exponent e is read as a [comb_teeth] x [comb_cols] bit matrix whose row j
   holds bits j*cols .. j*cols + cols - 1. Entry i of a base's table is
   prod over the set bits j of i of b^(2^(j*cols)), so column k of the
   matrix selects one entry, and a power costs [comb_cols] squarings and at
   most [comb_cols] multiplies instead of the 256 squarings of a ladder.
   The teeth trade table size (2^teeth felems) against columns. *)
let comb_teeth = 4
let comb_cols = (256 + comb_teeth - 1) / comb_teeth

type comb = felem array (* length 2^comb_teeth; entry 0 is one *)

let comb (b : felem) : comb =
  let t = Array.make (1 lsl comb_teeth) one in
  let row = ref b in
  for j = 0 to comb_teeth - 1 do
    if j > 0 then
      for _ = 1 to comb_cols do
        row := sqr !row
      done;
    let bit = 1 lsl j in
    t.(bit) <- !row;
    for i = bit + 1 to (2 * bit) - 1 do
      t.(i) <- mul !row t.(i - bit)
    done
  done;
  t

(* Bit [k] of little-endian base-2^16 limbs. *)
let limb_bit l k =
  let i = k lsr 4 in
  i < Array.length l && (Array.unsafe_get l i lsr (k land 15)) land 1 = 1

let comb_pow_multi (combs : (comb * Bignum.t) array) (smalls : (felem * int) array) =
  let exps =
    Array.map
      (fun (_, e) ->
        let l = Bignum.limbs e in
        if Array.length l > 16 then invalid_arg "Modp.comb_pow: exponent wider than 256 bits";
        l)
      combs
  in
  (* The 64 columns also cover every bit of a non-negative OCaml int. *)
  Array.iter (fun (_, z) -> if z < 0 then invalid_arg "Modp.comb_pow_multi: negative exponent") smalls;
  let acc = ref one and started = ref false in
  let times x =
    acc := if !started then mul !acc x else x;
    started := true
  in
  for k = comb_cols - 1 downto 0 do
    if !started then acc := sqr !acc;
    Array.iteri
      (fun i (table, _) ->
        let e = exps.(i) in
        let idx = ref 0 in
        for j = comb_teeth - 1 downto 0 do
          idx := (!idx lsl 1) lor Bool.to_int (limb_bit e ((j * comb_cols) + k))
        done;
        if !idx <> 0 then times table.(!idx))
      combs;
    Array.iter (fun (b, z) -> if (z lsr k) land 1 = 1 then times b) smalls
  done;
  !acc

let comb_pow c e = comb_pow_multi [| (c, e) |] [||]

(* --- wide comb for one long-lived base --------------------------------------- *)

(* Lim-Lee comb with 8 teeth of 32 columns, the columns split into 4 blocks
   of 8. Bit j*32 + s*8 + k of an exponent is tooth j, block s, column k.
   Sub-table s holds, for every 8-bit index i, the product over the set
   bits j of i of b^(2^(32j + 8s)), so column k of block s selects one
   entry of sub-table s. A power walks the 8 columns from the top, one
   squaring between columns and one multiply per block: 7 squarings and at
   most 32 multiplies. Each sub-table has 255 entries besides [one], 1020
   field elements in all. *)
let wide_teeth = 8
let wide_blocks = 4
let wide_cols = 256 / (wide_teeth * wide_blocks)

type wide_comb = felem array array (* [wide_blocks] tables of 2^wide_teeth; entry 0 is one *)

let wide_comb (b : felem) : wide_comb =
  (* rows.(m) = b^(2^(8m)): tooth j of block s is row 4j + s. *)
  let rows = Array.make (wide_teeth * wide_blocks) b in
  for m = 1 to Array.length rows - 1 do
    let r = ref rows.(m - 1) in
    for _ = 1 to wide_cols do
      r := sqr !r
    done;
    rows.(m) <- !r
  done;
  Array.init wide_blocks (fun s ->
      let t = Array.make (1 lsl wide_teeth) one in
      for j = 0 to wide_teeth - 1 do
        let row = rows.((j * wide_blocks) + s) and bit = 1 lsl j in
        t.(bit) <- row;
        for i = bit + 1 to (2 * bit) - 1 do
          t.(i) <- mul row t.(i - bit)
        done
      done;
      t)

let wide_comb_pow (c : wide_comb) e =
  let l = Bignum.limbs e in
  let n = Array.length l in
  if n > 16 then invalid_arg "Modp.wide_comb_pow: exponent wider than 256 bits";
  (* Tooth j reads the 32-bit word of bits 32j .. 32j + 31. *)
  let words =
    Array.init wide_teeth (fun j ->
        let lo = if 2 * j < n then l.(2 * j) else 0
        and hi = if (2 * j) + 1 < n then l.((2 * j) + 1) else 0 in
        lo lor (hi lsl 16))
  in
  let acc = ref one and started = ref false in
  for k = wide_cols - 1 downto 0 do
    if !started then acc := sqr !acc;
    for s = 0 to wide_blocks - 1 do
      let col = (s * wide_cols) + k in
      let idx = ref 0 in
      for j = wide_teeth - 1 downto 0 do
        idx := (!idx lsl 1) lor ((Array.unsafe_get words j lsr col) land 1)
      done;
      if !idx <> 0 then begin
        let x = Array.unsafe_get (Array.unsafe_get c s) !idx in
        acc := if !started then mul !acc x else x;
        started := true
      end
    done
  done;
  !acc

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
