(* Hexadecimal encoding for test vectors. *)

let encode s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg (Printf.sprintf "Hex.decode: invalid character %C" c)

let decode s =
  let cleaned = Buffer.create (String.length s) in
  String.iter
    (fun c -> if c <> ' ' && c <> '\n' && c <> '\t' && c <> '\r' then Buffer.add_char cleaned c)
    s;
  let s = Buffer.contents cleaned in
  if String.length s mod 2 <> 0 then invalid_arg "Hex.decode: odd digit count";
  String.init (String.length s / 2) (fun i ->
      Char.chr ((digit s.[2 * i] lsl 4) lor digit s.[(2 * i) + 1]))
