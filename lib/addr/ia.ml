type isd = int
type asn = int

let max_asn = (1 lsl 48) - 1
let bgp_asn_limit = 1 lsl 32

type t = { isd : isd; asn : asn }

let asn_of_int v =
  if v < 0 || v > max_asn then invalid_arg (Printf.sprintf "Ia.asn_of_int: %d out of range" v);
  v

let asn_to_int v = v

let asn_of_string s =
  match String.split_on_char ':' s with
  | [ dec ] -> (
      match int_of_string_opt dec with
      | Some v when v >= 0 && v < bgp_asn_limit -> v
      | Some _ | None -> invalid_arg (Printf.sprintf "Ia.asn_of_string: bad decimal AS %S" s))
  | [ a; b; c ] ->
      let group g =
        match int_of_string_opt ("0x" ^ g) with
        | Some v when v >= 0 && v <= 0xFFFF -> v
        | Some _ | None -> invalid_arg (Printf.sprintf "Ia.asn_of_string: bad hex group %S" g)
      in
      (group a lsl 32) lor (group b lsl 16) lor group c
  | _ -> invalid_arg (Printf.sprintf "Ia.asn_of_string: malformed AS %S" s)

let asn_to_string v =
  if v < bgp_asn_limit then string_of_int v
  else Printf.sprintf "%x:%x:%x" ((v lsr 32) land 0xFFFF) ((v lsr 16) land 0xFFFF) (v land 0xFFFF)

let make isd asn =
  if isd < 0 || isd > 0xFFFF then invalid_arg (Printf.sprintf "Ia.make: ISD %d out of range" isd);
  { isd; asn = asn_of_int asn }

let of_string s =
  match String.index_opt s '-' with
  | None -> invalid_arg (Printf.sprintf "Ia.of_string: missing '-' in %S" s)
  | Some i ->
      let isd_str = String.sub s 0 i in
      let asn_str = String.sub s (i + 1) (String.length s - i - 1) in
      let isd =
        match int_of_string_opt isd_str with
        | Some v when v >= 0 && v <= 0xFFFF -> v
        | Some _ | None -> invalid_arg (Printf.sprintf "Ia.of_string: bad ISD %S" isd_str)
      in
      { isd; asn = asn_of_string asn_str }

let to_string t = Printf.sprintf "%d-%s" t.isd (asn_to_string t.asn)
let equal a b = a.isd = b.isd && a.asn = b.asn
let compare a b = if a.isd <> b.isd then Stdlib.compare a.isd b.isd else Stdlib.compare a.asn b.asn

let encode w t =
  Scion_util.Rw.Writer.u16 w t.isd;
  Scion_util.Rw.Writer.u16 w ((t.asn lsr 32) land 0xFFFF);
  Scion_util.Rw.Writer.u32_of_int w (t.asn land 0xFFFFFFFF)

let decode r =
  let isd = Scion_util.Rw.Reader.u16 r in
  let hi = Scion_util.Rw.Reader.u16 r in
  let lo = Scion_util.Rw.Reader.u32_to_int r in
  { isd; asn = (hi lsl 32) lor lo }

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
