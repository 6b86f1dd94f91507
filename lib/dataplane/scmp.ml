module Rw = Scion_util.Rw

type t =
  | Echo_request of { id : int; seq : int; data : string }
  | Echo_reply of { id : int; seq : int; data : string }
  | Destination_unreachable
  | External_interface_down of { ia : Scion_addr.Ia.t; ifid : int }
  | Expired_hop_field
  | Invalid_hop_field_mac

let type_code = function
  | Echo_request _ -> (128, 0)
  | Echo_reply _ -> (129, 0)
  | Destination_unreachable -> (1, 0)
  | External_interface_down _ -> (5, 0)
  | Expired_hop_field -> (4, 1)
  | Invalid_hop_field_mac -> (4, 2)

let encode t =
  let w = Rw.Writer.create () in
  let ty, code = type_code t in
  Rw.Writer.u8 w ty;
  Rw.Writer.u8 w code;
  Rw.Writer.u16 w 0 (* checksum slot; integrity comes from hop MACs in-sim *);
  (match t with
  | Echo_request { id; seq; data } | Echo_reply { id; seq; data } ->
      Rw.Writer.u16 w id;
      Rw.Writer.u16 w seq;
      Rw.Writer.raw w data
  | External_interface_down { ia; ifid } ->
      Scion_addr.Ia.encode w ia;
      Rw.Writer.u16 w ifid
  | Destination_unreachable | Expired_hop_field | Invalid_hop_field_mac -> ());
  Rw.Writer.contents w

let echo_reply_for s =
  let r = Rw.Reader.of_string s in
  try
    let ty = Rw.Reader.u8 r in
    let code = Rw.Reader.u8 r in
    let _checksum = Rw.Reader.u16 r in
    match (ty, code) with
    | 128, 0 ->
        let id = Rw.Reader.u16 r in
        let seq = Rw.Reader.u16 r in
        let data = Rw.Reader.raw r (Rw.Reader.remaining r) in
        Some (encode (Echo_reply { id; seq; data }))
    | _ -> None
  with Rw.Truncated -> None
