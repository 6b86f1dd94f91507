type t = int32

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
      let octet o =
        match int_of_string_opt o with
        | Some v when v >= 0 && v <= 255 -> v
        | Some _ | None -> invalid_arg (Printf.sprintf "Ipv4.of_string: bad octet %S in %S" o s)
      in
      Int32.of_int ((octet a lsl 24) lor (octet b lsl 16) lor (octet c lsl 8) lor octet d)
  | _ -> invalid_arg (Printf.sprintf "Ipv4.of_string: malformed address %S" s)

let of_int32 v = v
let to_int32 v = v

let to_string v =
  let u = Int32.to_int v land 0xFFFFFFFF in
  Printf.sprintf "%d.%d.%d.%d" ((u lsr 24) land 0xFF) ((u lsr 16) land 0xFF) ((u lsr 8) land 0xFF)
    (u land 0xFF)


type endpoint = { host : t; port : int }

let endpoint host port =
  if port < 0 || port > 0xFFFF then invalid_arg (Printf.sprintf "Ipv4.endpoint: bad port %d" port);
  { host; port }

let endpoint_of_string s =
  match String.index_opt s ':' with
  | None -> invalid_arg (Printf.sprintf "Ipv4.endpoint_of_string: missing port in %S" s)
  | Some i -> (
      let host = of_string (String.sub s 0 i) in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some p -> endpoint host p
      | None -> invalid_arg (Printf.sprintf "Ipv4.endpoint_of_string: bad port in %S" s))

let endpoint_to_string e = Printf.sprintf "%s:%d" (to_string e.host) e.port
