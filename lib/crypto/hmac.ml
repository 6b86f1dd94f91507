let block_size = 64

let sha256 ~key msg =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let pad fill =
    String.init block_size (fun i ->
        let k = if i < String.length key then Char.code key.[i] else 0 in
        Char.chr (k lxor fill))
  in
  let inner = Sha256.digest (pad 0x36 ^ msg) in
  Sha256.digest (pad 0x5C ^ inner)

let kdf ~secret ~info n =
  let out = Buffer.create n in
  let counter = ref 1 in
  while Buffer.length out < n do
    let block = sha256 ~key:secret (info ^ String.make 1 (Char.chr !counter)) in
    Buffer.add_string out block;
    incr counter
  done;
  String.sub (Buffer.contents out) 0 n
