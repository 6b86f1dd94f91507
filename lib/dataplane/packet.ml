module Rw = Scion_util.Rw

type host = Ipv4 of Scion_addr.Ipv4.t | Service of int

type proto = Udp | Scmp | Bfd

let proto_to_int = function Udp -> 17 | Scmp -> 202 | Bfd -> 203

let proto_of_int = function
  | 17 -> Some Udp
  | 202 -> Some Scmp
  | 203 -> Some Bfd
  | _ -> None

type path = Empty | Standard of Path.t

type t = {
  traffic_class : int;
  flow_id : int;
  proto : proto;
  dst_ia : Scion_addr.Ia.t;
  src_ia : Scion_addr.Ia.t;
  dst_host : host;
  src_host : host;
  path : path;
  payload : string;
}

let make ~proto ~src ~dst ~path payload =
  let src_ia, src_host = src and dst_ia, dst_host = dst in
  { traffic_class = 0; flow_id = 0; proto; dst_ia; src_ia; dst_host; src_host; path; payload }

exception Malformed of string

(* scion-lint: allow hotpath-allocation -- cold error exit, allocates only for packets being rejected *)
let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt
let version = 0
let path_type = function Empty -> 0 | Standard _ -> 1

let host_type = function Ipv4 _ -> 0 | Service _ -> 1

let encode_host w = function
  | Ipv4 a -> Rw.Writer.u32 w (Scion_addr.Ipv4.to_int32 a)
  | Service s -> Rw.Writer.u32_of_int w s

let decode_host r ty =
  match ty with
  | 0 -> Ipv4 (Scion_addr.Ipv4.of_int32 (Rw.Reader.u32 r))
  | 1 -> Service (Rw.Reader.u32_to_int r)
  | _ -> malformed "unknown host address type %d" ty

let encode t =
  let w = Rw.Writer.create () in
  (* Word 0: version(4) traffic_class(8) flow_id(20) *)
  Rw.Writer.u32_of_int w
    ((version lsl 28) lor ((t.traffic_class land 0xFF) lsl 20) lor (t.flow_id land 0xFFFFF));
  let path_bytes = match t.path with Empty -> "" | Standard p -> Path.encode p in
  (* Word 1: next_hdr(8) path_type(8) DT(4)DL(4) ST(4)SL(4) *)
  Rw.Writer.u8 w (proto_to_int t.proto);
  Rw.Writer.u8 w (path_type t.path);
  Rw.Writer.u8 w ((host_type t.dst_host lsl 4) lor 4);
  Rw.Writer.u8 w ((host_type t.src_host lsl 4) lor 4);
  (* Word 2: payload length, path length *)
  Rw.Writer.u16 w (String.length t.payload);
  Rw.Writer.u16 w (String.length path_bytes);
  Scion_addr.Ia.encode w t.dst_ia;
  Scion_addr.Ia.encode w t.src_ia;
  encode_host w t.dst_host;
  encode_host w t.src_host;
  Rw.Writer.raw w path_bytes;
  Rw.Writer.raw w t.payload;
  Rw.Writer.contents w

let decode s =
  let r = Rw.Reader.of_string s in
  try
    let word0 = Rw.Reader.u32_to_int r in
    let ver = (word0 lsr 28) land 0xF in
    if ver <> version then malformed "unsupported version %d" ver;
    let traffic_class = (word0 lsr 20) land 0xFF in
    let flow_id = word0 land 0xFFFFF in
    let proto =
      let v = Rw.Reader.u8 r in
      match proto_of_int v with Some p -> p | None -> malformed "unknown protocol %d" v
    in
    let ptype = Rw.Reader.u8 r in
    let dt = Rw.Reader.u8 r in
    let st = Rw.Reader.u8 r in
    let payload_len = Rw.Reader.u16 r in
    let path_len = Rw.Reader.u16 r in
    let dst_ia = Scion_addr.Ia.decode r in
    let src_ia = Scion_addr.Ia.decode r in
    let dst_host = decode_host r (dt lsr 4) in
    let src_host = decode_host r (st lsr 4) in
    let path_bytes = Rw.Reader.raw r path_len in
    let path =
      match ptype with
      | 0 -> if path_len <> 0 then malformed "empty path with %d path bytes" path_len else Empty
      | 1 -> (
          match Path.decode path_bytes with
          | p -> Standard p
          | exception Path.Malformed m -> malformed "bad path: %s" m)
      | _ -> malformed "unknown path type %d" ptype
    in
    let payload = Rw.Reader.raw r payload_len in
    Rw.Reader.expect_end r;
    { traffic_class; flow_id; proto; dst_ia; src_ia; dst_host; src_host; path; payload }
  with Rw.Truncated -> malformed "truncated packet"

(* Zero-copy wire view. A border router forwarding a packet only mutates
   three header fields (path meta position byte and the current segment
   identifier), so the fast path keeps the packet as the encoded buffer and
   patches it in place instead of decode / mutate / re-encode. The view
   record itself is built once per packet walk; per-hop processing then
   touches only the buffer. *)
module View = struct
  type view = {
    buf : Bytes.t;
    len0 : int;
    len1 : int;
    len2 : int;
    nsegs : int;  (* 0 for an empty (intra-AS) path *)
    total_hops : int;
    hops_off : int;
    payload_off : int;
  }

  (* The address header has fixed-size hosts in this reproduction (DL = SL
     = 4), so every field before the path sits at a constant offset. *)
  let path_off = 36

  let u8 v off = Char.code (Bytes.unsafe_get v.buf off)
  let u16 v off = (u8 v off lsl 8) lor u8 v (off + 1)
  let u32 v off = (u16 v off lsl 16) lor u16 v (off + 2)

  let of_bytes buf =
    let len = Bytes.length buf in
    if len < path_off then malformed "truncated packet";
    let byte off = Char.code (Bytes.get buf off) in
    let ver = byte 0 lsr 4 in
    if ver <> version then malformed "unsupported version %d" ver;
    (match proto_of_int (byte 4) with
    | Some _ -> ()
    | None -> malformed "unknown protocol %d" (byte 4));
    let ptype = byte 5 in
    if byte 6 lsr 4 > 1 then malformed "unknown host address type %d" (byte 6 lsr 4);
    if byte 7 lsr 4 > 1 then malformed "unknown host address type %d" (byte 7 lsr 4);
    let payload_len = (byte 8 lsl 8) lor byte 9 in
    let path_len = (byte 10 lsl 8) lor byte 11 in
    if path_off + path_len + payload_len <> len then malformed "truncated packet";
    let len0, len1, len2, nsegs, total_hops =
      match ptype with
      | 0 ->
          if path_len <> 0 then malformed "empty path with %d path bytes" path_len;
          (0, 0, 0, 0, 0)
      | 1 ->
          if path_len < 4 then malformed "bad path: truncated path";
          let meta =
            (byte path_off lsl 24)
            lor (byte (path_off + 1) lsl 16)
            lor (byte (path_off + 2) lsl 8)
            lor byte (path_off + 3)
          in
          let curr_inf = (meta lsr 30) land 0x3 in
          let curr_hf = (meta lsr 24) land 0x3F in
          let len0 = (meta lsr 12) land 0x3F in
          let len1 = (meta lsr 6) land 0x3F in
          let len2 = meta land 0x3F in
          let nsegs =
            if len0 = 0 then malformed "bad path: segment 0 empty"
            else if len1 = 0 then (if len2 <> 0 then malformed "bad path: segment gap" else 1)
            else if len2 = 0 then 2
            else 3
          in
          let total = len0 + len1 + len2 in
          if path_len <> 4 + (8 * nsegs) + (12 * total) then malformed "bad path: truncated path";
          if curr_inf >= nsegs then malformed "bad path: curr_inf %d out of range" curr_inf;
          if curr_hf >= total then malformed "bad path: curr_hf %d out of range" curr_hf;
          (len0, len1, len2, nsegs, total)
      | _ -> malformed "unknown path type %d" ptype
    in
    {
      buf;
      len0;
      len1;
      len2;
      nsegs;
      total_hops;
      hops_off = path_off + 4 + (8 * nsegs);
      payload_off = path_off + path_len;
    }

  (* [encode] returns a fresh, uniquely-owned string, so viewing it without
     a defensive copy is safe: nothing else can observe the mutation. *)
  let of_packet p = of_bytes (Bytes.unsafe_of_string (encode p))
  let of_string s = of_bytes (Bytes.of_string s)

  (* One fresh buffer: the header, then the payload, with the two header
     fields that depend on the payload patched in. Validation is the same
     as for any other view. *)
  let of_header header ~proto payload =
    let hlen = String.length header and plen = String.length payload in
    if hlen < path_off then malformed "truncated packet";
    let buf = Bytes.create (hlen + plen) in
    Bytes.blit_string header 0 buf 0 hlen;
    Bytes.blit_string payload 0 buf hlen plen;
    Bytes.set buf 4 (Char.chr (proto_to_int proto));
    Bytes.set buf 8 (Char.unsafe_chr ((plen lsr 8) land 0xFF));
    Bytes.set buf 9 (Char.unsafe_chr (plen land 0xFF));
    of_bytes buf

  (* Total hardening wrapper for untrusted wire bytes: every structural
     rejection comes back as a verdict, never an exception, so a router
     front-end can drop malformed frames without an exception handler on
     its receive loop. *)
  let validate s =
    match of_string s with
    | v -> Ok v
    | exception Malformed reason -> Error reason
  let to_packet v = decode (Bytes.to_string v.buf)
  let has_path v = v.nsegs > 0

  let dst_isd v = u16 v 12
  let dst_asn v = (u16 v 14 lsl 32) lor u32 v 16

  (* Path position, read live from the meta byte so the buffer stays the
     single source of truth. *)
  let curr_inf v = u8 v path_off lsr 6
  let curr_hf v = u8 v path_off land 0x3F

  let info_off v = path_off + 4 + (8 * curr_inf v)
  let curr_cons_dir v = u8 v (info_off v) land 1 <> 0
  let curr_peer v = u8 v (info_off v) land 2 <> 0
  let curr_seg_id v = u16 v (info_off v + 2)
  let curr_timestamp v = u32 v (info_off v + 4)

  let set_curr_seg_id v x =
    let off = info_off v + 2 in
    Bytes.unsafe_set v.buf off (Char.unsafe_chr ((x lsr 8) land 0xFF));
    Bytes.unsafe_set v.buf (off + 1) (Char.unsafe_chr (x land 0xFF))

  let hop_off v = v.hops_off + (12 * curr_hf v)
  let curr_exp_time v = u8 v (hop_off v + 1)
  let curr_cons_ingress v = u16 v (hop_off v + 2)
  let curr_cons_egress v = u16 v (hop_off v + 4)

  let curr_mac_off v = hop_off v + 6
  let buffer v = v.buf

  let chain_curr_seg_id v =
    let m = curr_mac_off v in
    curr_seg_id v lxor ((u8 v m lsl 8) lor u8 v (m + 1))

  let seg_start v inf = (if inf > 0 then v.len0 else 0) + if inf > 1 then v.len1 else 0
  let seg_len v inf = if inf = 0 then v.len0 else if inf = 1 then v.len1 else v.len2
  let curr_is_seg_first v = curr_hf v = seg_start v (curr_inf v)

  let curr_is_seg_last v =
    let inf = curr_inf v in
    curr_hf v = seg_start v inf + seg_len v inf - 1

  let at_last_hop v = curr_hf v = v.total_hops - 1

  let advance v =
    if at_last_hop v then malformed "advance past last hop";
    let inf = if curr_is_seg_last v then curr_inf v + 1 else curr_inf v in
    let hf = curr_hf v + 1 in
    Bytes.unsafe_set v.buf path_off (Char.unsafe_chr ((inf lsl 6) lor hf))

  let traversal_ingress v = if curr_cons_dir v then curr_cons_ingress v else curr_cons_egress v
  let traversal_egress v = if curr_cons_dir v then curr_cons_egress v else curr_cons_ingress v
end

let reply_skeleton t ~payload =
  {
    t with
    dst_ia = t.src_ia;
    src_ia = t.dst_ia;
    dst_host = t.src_host;
    src_host = t.dst_host;
    path = (match t.path with Empty -> Empty | Standard p -> Standard (Path.reverse p));
    payload;
  }
