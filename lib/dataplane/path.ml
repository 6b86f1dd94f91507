module Rw = Scion_util.Rw

type info = { cons_dir : bool; peer : bool; mutable seg_id : int; timestamp : int32 }
type hop = { exp_time : int; cons_ingress : int; cons_egress : int; mac : string }

type t = {
  mutable curr_inf : int;
  mutable curr_hf : int;
  infos : info array;
  hops : hop array;
  lens : int array;
}

exception Malformed of string

(* Cold error exit: only reached by packets that are already being rejected,
   so its formatting allocations are deliberate. *)
(* scion-lint: allow hotpath-allocation -- cold error exit, allocates only for packets being rejected *)
let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt
let max_exp_time = 255
let mac_len = 6
let max_seg_hops = 63


(* The structural rule of a standard path, first violation reported. The
   combinator filters its candidates with it, and [create] raises it. *)
let check segments =
  let segment_problem (_, hops) =
    let l = List.length hops in
    if l = 0 || l > max_seg_hops then
      Some (Printf.sprintf "segment must have 1-%d hops, got %d" max_seg_hops l)
    else None
  in
  let hop_problem h =
    if String.length h.mac <> mac_len then Some (Printf.sprintf "hop MAC must be %d bytes" mac_len)
    else if h.exp_time < 0 || h.exp_time > max_exp_time then
      Some (Printf.sprintf "bad exp_time %d" h.exp_time)
    else None
  in
  let n = List.length segments in
  let problem =
    if n = 0 || n > 3 then Some (Printf.sprintf "path must have 1-3 segments, got %d" n)
    else
      match List.find_map segment_problem segments with
      | Some _ as p -> p
      | None -> List.find_map (fun (_, hops) -> List.find_map hop_problem hops) segments
  in
  match problem with None -> Ok () | Some m -> Error m

let create segments =
  (match check segments with Ok () -> () | Error m -> raise (Malformed m));
  {
    curr_inf = 0;
    curr_hf = 0;
    infos = Array.of_list (List.map fst segments);
    hops = Array.of_list (List.concat_map snd segments);
    lens = Array.of_list (List.map (fun (_, hops) -> List.length hops) segments);
  }

(* Relative expiry: (exp_time + 1) periods of 24h/256 after the segment
   timestamp, as in the SCION header spec. *)
let expiry_period = 24.0 *. 3600.0 /. 256.0

(* Scalar variant for the packet-view fast path, which reads the timestamp
   as an unsigned int straight off the wire. *)
let hop_expiry_ts ~timestamp ~exp_time =
  (* scion-lint: allow hotpath-allocation -- expiry is float math by design; two boxed floats per packet, pinned by the bench guard *)
  float_of_int timestamp +. (float_of_int (exp_time + 1) *. expiry_period)

let hop_expiry info hop =
  hop_expiry_ts ~timestamp:(Int32.to_int info.timestamp land 0xFFFFFFFF) ~exp_time:hop.exp_time

(* The MAC input is exactly one AES block, so the hot path stages the 16
   bytes straight into the CMAC key's scratch block and verifies in place:
   no Writer, no intermediate strings, one AES call. *)
let stage_mac_fields key ~seg_id ~timestamp ~exp_time ~cons_ingress ~cons_egress =
  let b = Scion_crypto.Cmac.stage key in
  Bytes.unsafe_set b 0 '\x00';
  Bytes.unsafe_set b 1 '\x00';
  Bytes.unsafe_set b 2 (Char.unsafe_chr ((seg_id lsr 8) land 0xFF));
  Bytes.unsafe_set b 3 (Char.unsafe_chr (seg_id land 0xFF));
  let ts = timestamp land 0xFFFFFFFF in
  Bytes.unsafe_set b 4 (Char.unsafe_chr ((ts lsr 24) land 0xFF));
  Bytes.unsafe_set b 5 (Char.unsafe_chr ((ts lsr 16) land 0xFF));
  Bytes.unsafe_set b 6 (Char.unsafe_chr ((ts lsr 8) land 0xFF));
  Bytes.unsafe_set b 7 (Char.unsafe_chr (ts land 0xFF));
  Bytes.unsafe_set b 8 '\x00';
  Bytes.unsafe_set b 9 (Char.unsafe_chr (exp_time land 0xFF));
  Bytes.unsafe_set b 10 (Char.unsafe_chr ((cons_ingress lsr 8) land 0xFF));
  Bytes.unsafe_set b 11 (Char.unsafe_chr (cons_ingress land 0xFF));
  Bytes.unsafe_set b 12 (Char.unsafe_chr ((cons_egress lsr 8) land 0xFF));
  Bytes.unsafe_set b 13 (Char.unsafe_chr (cons_egress land 0xFF));
  Bytes.unsafe_set b 14 '\x00';
  Bytes.unsafe_set b 15 '\x00'

let compute_mac key ~seg_id ~timestamp hop =
  stage_mac_fields key ~seg_id ~timestamp:(Int32.to_int timestamp) ~exp_time:hop.exp_time
    ~cons_ingress:hop.cons_ingress ~cons_egress:hop.cons_egress;
  let out = Bytes.create mac_len in
  Scion_crypto.Cmac.mac_staged_into key ~dst:out ~off:0 ~len:mac_len;
  Bytes.to_string out

let chain_seg_id ~seg_id ~mac =
  seg_id lxor ((Char.code mac.[0] lsl 8) lor Char.code mac.[1])

let encode t =
  let w = Rw.Writer.create () in
  (* PathMeta: CurrINF(2) CurrHF(6) RSV(6) Seg0Len(6) Seg1Len(6) Seg2Len(6) *)
  let len i = if i < Array.length t.lens then t.lens.(i) else 0 in
  let meta =
    (t.curr_inf lsl 30) lor (t.curr_hf lsl 24) lor (len 0 lsl 12) lor (len 1 lsl 6) lor len 2
  in
  Rw.Writer.u32_of_int w meta;
  Array.iter
    (fun info ->
      let flags = (if info.cons_dir then 1 else 0) lor if info.peer then 2 else 0 in
      Rw.Writer.u8 w flags;
      Rw.Writer.u8 w 0;
      Rw.Writer.u16 w info.seg_id;
      Rw.Writer.u32 w info.timestamp)
    t.infos;
  Array.iter
    (fun hop ->
      Rw.Writer.u8 w 0;
      Rw.Writer.u8 w hop.exp_time;
      Rw.Writer.u16 w hop.cons_ingress;
      Rw.Writer.u16 w hop.cons_egress;
      Rw.Writer.raw w hop.mac)
    t.hops;
  Rw.Writer.contents w

let decode s =
  let r = Rw.Reader.of_string s in
  try
    let meta = Rw.Reader.u32_to_int r in
    let curr_inf = (meta lsr 30) land 0x3 in
    let curr_hf = (meta lsr 24) land 0x3F in
    let lens = [| (meta lsr 12) land 0x3F; (meta lsr 6) land 0x3F; meta land 0x3F |] in
    let nsegs =
      if lens.(0) = 0 then malformed "segment 0 empty"
      else if lens.(1) = 0 then (if lens.(2) <> 0 then malformed "segment gap" else 1)
      else if lens.(2) = 0 then 2
      else 3
    in
    let infos =
      Array.init nsegs (fun _ ->
          let flags = Rw.Reader.u8 r in
          let _rsv = Rw.Reader.u8 r in
          let seg_id = Rw.Reader.u16 r in
          let timestamp = Rw.Reader.u32 r in
          { cons_dir = flags land 1 <> 0; peer = flags land 2 <> 0; seg_id; timestamp })
    in
    let total = lens.(0) + lens.(1) + lens.(2) in
    let hops =
      Array.init total (fun _ ->
          let _flags = Rw.Reader.u8 r in
          let exp_time = Rw.Reader.u8 r in
          let cons_ingress = Rw.Reader.u16 r in
          let cons_egress = Rw.Reader.u16 r in
          let mac = Rw.Reader.raw r mac_len in
          { exp_time; cons_ingress; cons_egress; mac })
    in
    Rw.Reader.expect_end r;
    if curr_inf >= nsegs then malformed "curr_inf %d out of range" curr_inf;
    if curr_hf >= total then malformed "curr_hf %d out of range" curr_hf;
    { curr_inf; curr_hf; infos; hops; lens = Array.sub lens 0 nsegs }
  with Rw.Truncated -> malformed "truncated path"

let seg_start t inf =
  let start = ref 0 in
  for i = 0 to inf - 1 do
    start := !start + t.lens.(i)
  done;
  !start

let reverse t =
  let nsegs = Array.length t.infos in
  let segments =
    List.init nsegs (fun i ->
        let inf = t.infos.(nsegs - 1 - i) in
        let start = seg_start t (nsegs - 1 - i) in
        let hops =
          List.init t.lens.(nsegs - 1 - i) (fun j ->
              t.hops.(start + t.lens.(nsegs - 1 - i) - 1 - j))
        in
        ({ inf with cons_dir = not inf.cons_dir }, hops))
  in
  create segments

