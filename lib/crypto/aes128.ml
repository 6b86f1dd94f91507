(* T-table AES-128 encryption: each round is 16 table lookups and xors over
   32-bit words (kept in OCaml's native int, masked). The tables combine
   SubBytes, ShiftRows and MixColumns; the last round uses the plain S-box. *)

let sbox =
  (* hex rows decoded in place (not through a shared decoding helper) so
     that this constant keeps the lint's hot-path reachability chain —
     Filter.check / the border router reach [encrypt_into] and therefore
     this binding — free of allocating helpers *)
  let s = Bytes.create 256 in
  let hexrows =
    [|
      "637c777bf26b6fc53001672bfed7ab76"; "ca82c97dfa5947f0add4a2af9ca472c0";
      "b7fd9326363ff7cc34a5e5f171d83115"; "04c723c31896059a071280e2eb27b275";
      "09832c1a1b6e5aa0523bd6b329e32f84"; "53d100ed20fcb15b6acbbe394a4c58cf";
      "d0efaafb434d338545f9027f503c9fa8"; "51a3408f929d38f5bcb6da2110fff3d2";
      "cd0c13ec5f974417c4a77e3d645d1973"; "60814fdc222a908846eeb814de5e0bdb";
      "e0323a0a4906245cc2d3ac629195e479"; "e7c8376d8dd54ea96c56f4ea657aae08";
      "ba78252e1ca6b4c6e8dd741f4bbd8b8a"; "703eb5664803f60e613557b986c11d9e";
      "e1f8981169d98e949b1e87e9ce5528df"; "8ca1890dbfe6426841992d0fb054bb16";
    |]
  in
  let nibble c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | _ -> invalid_arg "Aes128.sbox"
  in
  Array.iteri
    (fun row hex ->
      for col = 0 to 15 do
        Bytes.set s ((row * 16) + col)
          (Char.chr ((nibble hex.[2 * col] lsl 4) lor nibble hex.[(2 * col) + 1]))
      done)
    hexrows;
  Bytes.to_string s

let sub b = Char.code sbox.[b]

let xtime b =
  let b2 = b lsl 1 in
  if b land 0x80 <> 0 then (b2 lxor 0x1B) land 0xFF else b2

let mask32 = 0xFFFFFFFF
let ror8 w = ((w lsr 8) lor (w lsl 24)) land mask32

(* Te0[x] = (2*S | S | S | 3*S) as a big-endian word; Te1..Te3 are byte
   rotations of Te0. *)
let te0 =
  Array.init 256 (fun x ->
      let s = sub x in
      let s2 = xtime s in
      let s3 = s2 lxor s in
      (s2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor s3)

let te1 = Array.map ror8 te0
let te2 = Array.map ror8 te1
let te3 = Array.map ror8 te2

type key = int array
(* 44 round-key words. *)

let expand_key k =
  if String.length k <> 16 then invalid_arg "Aes128.expand_key: key must be 16 bytes";
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <-
      (Char.code k.[4 * i] lsl 24)
      lor (Char.code k.[(4 * i) + 1] lsl 16)
      lor (Char.code k.[(4 * i) + 2] lsl 8)
      lor Char.code k.[(4 * i) + 3]
  done;
  let rcon = ref 1 in
  for i = 4 to 43 do
    let t = w.(i - 1) in
    let t =
      if i mod 4 = 0 then begin
        let rotated = ((t lsl 8) lor (t lsr 24)) land mask32 in
        let subbed =
          (sub ((rotated lsr 24) land 0xFF) lsl 24)
          lor (sub ((rotated lsr 16) land 0xFF) lsl 16)
          lor (sub ((rotated lsr 8) land 0xFF) lsl 8)
          lor sub (rotated land 0xFF)
        in
        let v = subbed lxor (!rcon lsl 24) in
        rcon := xtime !rcon;
        v
      end
      else t
    in
    w.(i) <- w.(i - 4) lxor t land mask32;
    w.(i) <- w.(i) land mask32
  done;
  w

(* Allocation-free single-block encryption: reads 16 bytes of [src], writes
   16 bytes into [dst] (the two may be the same buffer). This is the border
   router's per-hop primitive — one AES call per hop-field MAC — so the word
   load/store helpers are spelled out rather than closed over. *)
let encrypt_into key ~(src : Bytes.t) ~(dst : Bytes.t) =
  if Bytes.length src < 16 then invalid_arg "Aes128.encrypt_into: src must hold 16 bytes";
  if Bytes.length dst < 16 then invalid_arg "Aes128.encrypt_into: dst must hold 16 bytes";
  let s0 =
    ref
      ((Char.code (Bytes.get src 0) lsl 24)
       lor (Char.code (Bytes.get src 1) lsl 16)
       lor (Char.code (Bytes.get src 2) lsl 8)
       lor Char.code (Bytes.get src 3)
      lxor key.(0))
  and s1 =
    ref
      ((Char.code (Bytes.get src 4) lsl 24)
       lor (Char.code (Bytes.get src 5) lsl 16)
       lor (Char.code (Bytes.get src 6) lsl 8)
       lor Char.code (Bytes.get src 7)
      lxor key.(1))
  and s2 =
    ref
      ((Char.code (Bytes.get src 8) lsl 24)
       lor (Char.code (Bytes.get src 9) lsl 16)
       lor (Char.code (Bytes.get src 10) lsl 8)
       lor Char.code (Bytes.get src 11)
      lxor key.(2))
  and s3 =
    ref
      ((Char.code (Bytes.get src 12) lsl 24)
       lor (Char.code (Bytes.get src 13) lsl 16)
       lor (Char.code (Bytes.get src 14) lsl 8)
       lor Char.code (Bytes.get src 15)
      lxor key.(3))
  in
  for round = 1 to 9 do
    let t0 =
      te0.((!s0 lsr 24) land 0xFF) lxor te1.((!s1 lsr 16) land 0xFF)
      lxor te2.((!s2 lsr 8) land 0xFF) lxor te3.(!s3 land 0xFF) lxor key.(4 * round)
    in
    let t1 =
      te0.((!s1 lsr 24) land 0xFF) lxor te1.((!s2 lsr 16) land 0xFF)
      lxor te2.((!s3 lsr 8) land 0xFF) lxor te3.(!s0 land 0xFF) lxor key.((4 * round) + 1)
    in
    let t2 =
      te0.((!s2 lsr 24) land 0xFF) lxor te1.((!s3 lsr 16) land 0xFF)
      lxor te2.((!s0 lsr 8) land 0xFF) lxor te3.(!s1 land 0xFF) lxor key.((4 * round) + 2)
    in
    let t3 =
      te0.((!s3 lsr 24) land 0xFF) lxor te1.((!s0 lsr 16) land 0xFF)
      lxor te2.((!s1 lsr 8) land 0xFF) lxor te3.(!s2 land 0xFF) lxor key.((4 * round) + 3)
    in
    s0 := t0;
    s1 := t1;
    s2 := t2;
    s3 := t3
  done;
  (* Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns. *)
  let o0 =
    (sub ((!s0 lsr 24) land 0xFF) lsl 24)
    lor (sub ((!s1 lsr 16) land 0xFF) lsl 16)
    lor (sub ((!s2 lsr 8) land 0xFF) lsl 8)
    lor sub (!s3 land 0xFF)
    lxor key.(40)
  and o1 =
    (sub ((!s1 lsr 24) land 0xFF) lsl 24)
    lor (sub ((!s2 lsr 16) land 0xFF) lsl 16)
    lor (sub ((!s3 lsr 8) land 0xFF) lsl 8)
    lor sub (!s0 land 0xFF)
    lxor key.(41)
  and o2 =
    (sub ((!s2 lsr 24) land 0xFF) lsl 24)
    lor (sub ((!s3 lsr 16) land 0xFF) lsl 16)
    lor (sub ((!s0 lsr 8) land 0xFF) lsl 8)
    lor sub (!s1 land 0xFF)
    lxor key.(42)
  and o3 =
    (sub ((!s3 lsr 24) land 0xFF) lsl 24)
    lor (sub ((!s0 lsr 16) land 0xFF) lsl 16)
    lor (sub ((!s1 lsr 8) land 0xFF) lsl 8)
    lor sub (!s2 land 0xFF)
    lxor key.(43)
  in
  Bytes.set dst 0 (Char.chr ((o0 lsr 24) land 0xFF));
  Bytes.set dst 1 (Char.chr ((o0 lsr 16) land 0xFF));
  Bytes.set dst 2 (Char.chr ((o0 lsr 8) land 0xFF));
  Bytes.set dst 3 (Char.chr (o0 land 0xFF));
  Bytes.set dst 4 (Char.chr ((o1 lsr 24) land 0xFF));
  Bytes.set dst 5 (Char.chr ((o1 lsr 16) land 0xFF));
  Bytes.set dst 6 (Char.chr ((o1 lsr 8) land 0xFF));
  Bytes.set dst 7 (Char.chr (o1 land 0xFF));
  Bytes.set dst 8 (Char.chr ((o2 lsr 24) land 0xFF));
  Bytes.set dst 9 (Char.chr ((o2 lsr 16) land 0xFF));
  Bytes.set dst 10 (Char.chr ((o2 lsr 8) land 0xFF));
  Bytes.set dst 11 (Char.chr (o2 land 0xFF));
  Bytes.set dst 12 (Char.chr ((o3 lsr 24) land 0xFF));
  Bytes.set dst 13 (Char.chr ((o3 lsr 16) land 0xFF));
  Bytes.set dst 14 (Char.chr ((o3 lsr 8) land 0xFF));
  Bytes.set dst 15 (Char.chr (o3 land 0xFF))

let encrypt_block key block =
  if String.length block <> 16 then invalid_arg "Aes128.encrypt_block: block must be 16 bytes";
  let buf = Bytes.of_string block in
  encrypt_into key ~src:buf ~dst:buf;
  Bytes.to_string buf
