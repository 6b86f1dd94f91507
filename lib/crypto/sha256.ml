(* SHA-256 over OCaml's native 63-bit ints, which avoids boxed Int32
   arithmetic in the compression loop. Every stored word is masked to 32
   bits; a rotation is written as two shifts whose bits above 31 are left
   in place until the one mask that ends each sum, since they never reach
   the low 32 bits.

   The digest is one-shot and copy-free: message words are read straight
   from the input string, one 64-word schedule serves every block, and only
   the padded tail (one or two blocks) is built in a fresh buffer. Signing,
   the signature-cache keys and the path fingerprints all hash short
   strings, so the per-digest allocations are what this avoids. *)

let mask = 0xFFFFFFFF

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

(* One block of [s] at byte offset [off] into the state [h], with [w] as
   the message schedule. *)
let compress h w s off =
  for i = 0 to 15 do
    let b j = Char.code (String.unsafe_get s (off + (4 * i) + j)) in
    Array.unsafe_set w i ((b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3)
  done;
  for i = 16 to 63 do
    let w15 = Array.unsafe_get w (i - 15) and w2 = Array.unsafe_get w (i - 2) in
    let s0 = ((w15 lsr 7) lor (w15 lsl 25)) lxor ((w15 lsr 18) lor (w15 lsl 14)) lxor (w15 lsr 3) in
    let s1 = ((w2 lsr 17) lor (w2 lsl 15)) lxor ((w2 lsr 19) lor (w2 lsl 13)) lxor (w2 lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
  done;
  let a = ref h.(0)
  and b = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for i = 0 to 63 do
    let e' = !e and a' = !a in
    let s1 = ((e' lsr 6) lor (e' lsl 26)) lxor ((e' lsr 11) lor (e' lsl 21)) lxor ((e' lsr 25) lor (e' lsl 7)) in
    let ch = (e' land !f) lxor (lnot e' land !g) in
    let t1 = !hh + (s1 land mask) + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let s0 = ((a' lsr 2) lor (a' lsl 30)) lxor ((a' lsr 13) lor (a' lsl 19)) lxor ((a' lsr 22) lor (a' lsl 10)) in
    let maj = (a' land (!b lor !c)) lor (!b land !c) in
    let t2 = (s0 land mask) + maj in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let digest msg =
  let h =
    [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]
  in
  let w = Array.make 64 0 in
  let len = String.length msg in
  let whole = len / 64 * 64 in
  let off = ref 0 in
  while !off < whole do
    compress h w msg !off;
    off := !off + 64
  done;
  (* The tail: the last partial block, the 0x80 marker, zeros and the
     64-bit big-endian bit length, in one block or, past 55 bytes, two. *)
  let rest = len - whole in
  let tail = Bytes.make (if rest < 56 then 64 else 128) '\x00' in
  Bytes.blit_string msg whole tail 0 rest;
  Bytes.set tail rest '\x80';
  Bytes.set_int64_be tail (Bytes.length tail - 8) (Int64.of_int (8 * len));
  let tail = Bytes.unsafe_to_string tail in
  compress h w tail 0;
  if String.length tail = 128 then compress h w tail 64;
  String.init 32 (fun i -> Char.chr ((h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xFF))
