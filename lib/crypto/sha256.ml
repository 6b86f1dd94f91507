(* SHA-256 over Int32 locals. ocamlopt keeps a let-bound or ref-held
   Int32 that never escapes unboxed, so the compression loop runs on plain
   32-bit registers: a rotation is two shifts and an or, and a sum wraps
   by itself, with none of the tag fix-ups or masks that 63-bit ints need.

   A state is its chaining value (8 big-endian words), the buffered tail
   of fewer than 64 bytes, the byte count and a 64-word schedule, all in
   flat byte buffers of its own. Whole blocks are read straight from the
   fed string; only a partial block is copied into the tail. Signing and
   the path fingerprints hash short strings, so these per-state
   allocations are the only ones a digest makes. *)

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let get_be b i = if Sys.big_endian then get32u b i else bswap32 (get32u b i)
let set_be b i v = set32u b i (if Sys.big_endian then v else bswap32 v)

let k =
  [|
    0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl; 0x59f111f1l;
    0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l; 0x243185bel; 0x550c7dc3l;
    0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l; 0xc19bf174l; 0xe49b69c1l; 0xefbe4786l;
    0x0fc19dc6l; 0x240ca1ccl; 0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal;
    0x983e5152l; 0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
    0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl; 0x53380d13l;
    0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l; 0xa2bfe8a1l; 0xa81a664bl;
    0xc24b8b70l; 0xc76c51a3l; 0xd192e819l; 0xd6990624l; 0xf40e3585l; 0x106aa070l;
    0x19a4c116l; 0x1e376c08l; 0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al;
    0x5b9cca4fl; 0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
    0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l;
  |]

let iv = "\x6a\x09\xe6\x67\xbb\x67\xae\x85\x3c\x6e\xf3\x72\xa5\x4f\xf5\x3a\x51\x0e\x52\x7f\x9b\x05\x68\x8c\x1f\x83\xd9\xab\x5b\xe0\xcd\x19"

type t = {
  cv : Bytes.t;  (** 32 bytes: the chaining value, big-endian words. *)
  tail : Bytes.t;  (** 64 bytes, of which the first [fill] are buffered. *)
  w : Bytes.t;  (** 256 bytes: the message schedule, native-endian words. *)
  mutable fill : int;
  mutable length : int;  (** Bytes fed so far. *)
}

let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))

(* One block of [src] at byte offset [off] into [st]'s chaining value. *)
let compress st src off =
  let w = st.w and cv = st.cv in
  for i = 0 to 15 do
    set32u w (4 * i) (get_be src (off + (4 * i)))
  done;
  for i = 16 to 63 do
    let w15 = get32u w (4 * (i - 15)) and w2 = get32u w (4 * (i - 2)) in
    let s0 = Int32.logxor (Int32.logxor (rotr w15 7) (rotr w15 18)) (Int32.shift_right_logical w15 3) in
    let s1 = Int32.logxor (Int32.logxor (rotr w2 17) (rotr w2 19)) (Int32.shift_right_logical w2 10) in
    set32u w (4 * i)
      (Int32.add (Int32.add (get32u w (4 * (i - 16))) s0) (Int32.add (get32u w (4 * (i - 7))) s1))
  done;
  let a = ref (get_be cv 0)
  and b = ref (get_be cv 4)
  and c = ref (get_be cv 8)
  and d = ref (get_be cv 12)
  and e = ref (get_be cv 16)
  and f = ref (get_be cv 20)
  and g = ref (get_be cv 24)
  and hh = ref (get_be cv 28) in
  for i = 0 to 63 do
    let e' = !e and a' = !a in
    let s1 = Int32.logxor (Int32.logxor (rotr e' 6) (rotr e' 11)) (rotr e' 25) in
    let ch = Int32.logxor (Int32.logand e' !f) (Int32.logand (Int32.lognot e') !g) in
    let t1 =
      Int32.add (Int32.add (Int32.add !hh s1) (Int32.add ch (Array.unsafe_get k i))) (get32u w (4 * i))
    in
    let s0 = Int32.logxor (Int32.logxor (rotr a' 2) (rotr a' 13)) (rotr a' 22) in
    let maj = Int32.logor (Int32.logand a' (Int32.logor !b !c)) (Int32.logand !b !c) in
    hh := !g;
    g := !f;
    f := e';
    e := Int32.add !d t1;
    d := !c;
    c := !b;
    b := a';
    a := Int32.add t1 (Int32.add s0 maj)
  done;
  set_be cv 0 (Int32.add (get_be cv 0) !a);
  set_be cv 4 (Int32.add (get_be cv 4) !b);
  set_be cv 8 (Int32.add (get_be cv 8) !c);
  set_be cv 12 (Int32.add (get_be cv 12) !d);
  set_be cv 16 (Int32.add (get_be cv 16) !e);
  set_be cv 20 (Int32.add (get_be cv 20) !f);
  set_be cv 24 (Int32.add (get_be cv 24) !g);
  set_be cv 28 (Int32.add (get_be cv 28) !hh)

let resume chain ~pos ~length =
  if length land 63 <> 0 then invalid_arg "Sha256.resume: length is not a whole number of blocks";
  let cv = Bytes.create 32 in
  Bytes.blit_string chain pos cv 0 32;
  { cv; tail = Bytes.create 64; w = Bytes.create 256; fill = 0; length }

let init () = resume iv ~pos:0 ~length:0

let copy st =
  { cv = Bytes.copy st.cv; tail = Bytes.copy st.tail; w = Bytes.create 256; fill = st.fill; length = st.length }

let feed st s =
  let len = String.length s in
  st.length <- st.length + len;
  let pos = ref 0 in
  if st.fill > 0 then begin
    let take = min (64 - st.fill) len in
    Bytes.blit_string s 0 st.tail st.fill take;
    st.fill <- st.fill + take;
    pos := take;
    if st.fill = 64 then begin
      compress st st.tail 0;
      st.fill <- 0
    end
  end;
  let src = Bytes.unsafe_of_string s in
  while len - !pos >= 64 do
    compress st src !pos;
    pos := !pos + 64
  done;
  let rest = len - !pos in
  if rest > 0 then begin
    Bytes.blit_string s !pos st.tail st.fill rest;
    st.fill <- st.fill + rest
  end

let chain st =
  if st.fill <> 0 then invalid_arg "Sha256.chain: a partial block is buffered";
  Bytes.to_string st.cv

(* The padding: the 0x80 marker, zeros and the 64-bit big-endian bit
   length, in what is left of the tail's block or, past 55 bytes, in one
   more. *)
let finish st =
  let tail = st.tail in
  Bytes.set tail st.fill '\x80';
  Bytes.fill tail (st.fill + 1) (63 - st.fill) '\x00';
  if st.fill >= 56 then begin
    compress st tail 0;
    Bytes.fill tail 0 56 '\x00'
  end;
  Bytes.set_int64_be tail 56 (Int64.of_int (8 * st.length));
  compress st tail 0;
  Bytes.to_string st.cv

let digest msg =
  let st = init () in
  feed st msg;
  finish st
