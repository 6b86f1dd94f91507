(* AES-CMAC (RFC 4493) with an allocation-free verification path: the key
   carries two 16-byte scratch buffers (CBC state and staging block), so a
   border router verifying hop MACs at line rate never allocates. The
   scratch makes a key single-threaded — exactly the simulator's usage —
   and [mac_truncated] stays a thin allocating wrapper for cold callers. *)

type key = {
  aes : Aes128.key;
  k1 : string;
  k2 : string;
  state : Bytes.t; (* CBC chaining value / final tag *)
  block : Bytes.t; (* staged input block, see [stage] *)
}

(* Left shift of a 16-byte string by one bit, with conditional reduction by
   the CMAC constant 0x87 (RFC 4493 subkey generation). *)
let double s =
  let out = Bytes.create 16 in
  let carry = ref 0 in
  for i = 15 downto 0 do
    let v = (Char.code s.[i] lsl 1) lor !carry in
    carry := (v lsr 8) land 1;
    Bytes.set out i (Char.chr (v land 0xFF))
  done;
  if Char.code s.[0] land 0x80 <> 0 then
    Bytes.set out 15 (Char.chr (Char.code (Bytes.get out 15) lxor 0x87));
  Bytes.to_string out

let of_string k =
  let aes = Aes128.expand_key k in
  let l = Aes128.encrypt_block aes (String.make 16 '\x00') in
  let k1 = double l in
  let k2 = double k1 in
  { aes; k1; k2; state = Bytes.create 16; block = Bytes.create 16 }

(* Compute the full CMAC of [msg] into [key.state] without allocating. *)
let mac_into key msg =
  let len = String.length msg in
  let nblocks = if len = 0 then 1 else (len + 15) / 16 in
  Bytes.fill key.state 0 16 '\x00';
  for i = 0 to nblocks - 2 do
    for j = 0 to 15 do
      Bytes.unsafe_set key.block j
        (Char.unsafe_chr
           (Char.code (String.unsafe_get msg ((i * 16) + j))
           lxor Char.code (Bytes.unsafe_get key.state j)))
    done;
    Aes128.encrypt_into key.aes ~src:key.block ~dst:key.state
  done;
  let off = (nblocks - 1) * 16 in
  let tail = len - off in
  if len > 0 && tail = 16 then
    for j = 0 to 15 do
      Bytes.unsafe_set key.block j
        (Char.unsafe_chr
           (Char.code (String.unsafe_get msg (off + j))
           lxor Char.code (String.unsafe_get key.k1 j)
           lxor Char.code (Bytes.unsafe_get key.state j)))
    done
  else begin
    Bytes.fill key.block 0 16 '\x00';
    Bytes.blit_string msg off key.block 0 tail;
    Bytes.set key.block tail '\x80';
    for j = 0 to 15 do
      Bytes.unsafe_set key.block j
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get key.block j)
           lxor Char.code (String.unsafe_get key.k2 j)
           lxor Char.code (Bytes.unsafe_get key.state j)))
    done
  end;
  Aes128.encrypt_into key.aes ~src:key.block ~dst:key.state

let mac_truncated key msg n =
  mac_into key msg;
  Bytes.sub_string key.state 0 n

let verify key ~msg ~tag =
  let n = String.length tag in
  if n > 16 || n = 0 then false
  else begin
    mac_into key msg;
    let diff = ref 0 in
    for i = 0 to n - 1 do
      diff := !diff lor (Char.code (String.unsafe_get tag i) lxor Char.code (Bytes.unsafe_get key.state i))
    done;
    !diff = 0
  end

(* --- single-complete-block fast path ----------------------------------- *)

(* A message of exactly 16 bytes has CMAC AES(k, msg xor k1): no CBC chain
   at all. SCION hop-field MAC inputs are exactly one block, so the router
   fast path stages the input via [stage] and checks the tag in place with
   [verify_staged_*] — zero allocation, one AES call. *)

let stage key = key.block

let encrypt_staged key =
  for j = 0 to 15 do
    Bytes.unsafe_set key.block j
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get key.block j) lxor Char.code (String.unsafe_get key.k1 j)))
  done;
  Aes128.encrypt_into key.aes ~src:key.block ~dst:key.state

let verify_staged_bytes key ~buf ~off ~len =
  if len > 16 || len = 0 || off < 0 || off + len > Bytes.length buf then false
  else begin
    encrypt_staged key;
    let diff = ref 0 in
    for i = 0 to len - 1 do
      diff :=
        !diff lor (Char.code (Bytes.unsafe_get buf (off + i)) lxor Char.code (Bytes.unsafe_get key.state i))
    done;
    !diff = 0
  end

let mac_staged_into key ~dst ~off ~len =
  encrypt_staged key;
  Bytes.blit key.state 0 dst off len
