let block_size = 64

(* The inner pad's chaining value, then the outer pad's: 64 bytes. *)
type key = string

let prepare key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let chain fill =
    let st = Sha256.init () in
    Sha256.feed st
      (String.init block_size (fun i ->
           let k = if i < String.length key then Char.code key.[i] else 0 in
           Char.chr (k lxor fill)));
    Sha256.chain st
  in
  chain 0x36 ^ chain 0x5C

let start key = Sha256.resume key ~pos:0 ~length:block_size

let finish key inner =
  let outer = Sha256.resume key ~pos:32 ~length:block_size in
  Sha256.feed outer (Sha256.finish inner);
  Sha256.finish outer

let kdf ~secret ~info n =
  let key = prepare secret in
  let out = Buffer.create n in
  let counter = ref 1 in
  while Buffer.length out < n do
    let st = start key in
    Sha256.feed st info;
    Sha256.feed st (String.make 1 (Char.chr !counter));
    Buffer.add_string out (finish key st);
    incr counter
  done;
  String.sub (Buffer.contents out) 0 n
