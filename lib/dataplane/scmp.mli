(** SCMP — the SCION Control Message Protocol, SCION's ICMP analogue.
    The measurement tool of Section 5.4 sends SCMP echo requests; border
    routers emit error messages for unreachable interfaces or expired hop
    fields. Messages are carried as the payload of a packet whose protocol
    is [Scmp]. *)

type t =
  | Echo_request of { id : int; seq : int; data : string }
  | Echo_reply of { id : int; seq : int; data : string }
  | Destination_unreachable
  | External_interface_down of { ia : Scion_addr.Ia.t; ifid : int }
  | Expired_hop_field
  | Invalid_hop_field_mac

val encode : t -> string

val echo_reply_for : string -> string option
(** [echo_reply_for payload] is the encoded echo reply answering [payload]
    when it decodes as an echo request (same id/seq/data), and [None] for
    anything else — what an end host's SCMP responder sends back without
    caring about the rest of the message zoo. *)

