(* Reference encoder for the bytes a PCB entry signature covers, restated
   from Pcb's public record fields alone: a header ("PCB1", seg_id,
   timestamp), the entries before [i] with their signatures, then entry [i]
   without its signature. The control-plane signature checks verify
   against these bytes, so a change to the library's encoder cannot cancel
   out between signing and checking. *)

open Scion_controlplane
module Rw = Scion_util.Rw
module Path = Scion_dataplane.Path

let hop w (h : Path.hop) =
  Rw.Writer.u8 w h.Path.exp_time;
  Rw.Writer.u16 w h.Path.cons_ingress;
  Rw.Writer.u16 w h.Path.cons_egress;
  Rw.Writer.raw w h.Path.mac

let entry w ~with_signature (e : Pcb.as_entry) =
  Scion_addr.Ia.encode w e.Pcb.ia;
  hop w e.Pcb.hop;
  Rw.Writer.u16 w (List.length e.Pcb.peers);
  List.iter
    (fun (p : Pcb.peer_entry) ->
      Scion_addr.Ia.encode w p.Pcb.peer_ia;
      Rw.Writer.u16 w p.Pcb.peer_interface;
      Rw.Writer.u16 w p.Pcb.peer_remote_if;
      hop w p.Pcb.peer_hop)
    e.Pcb.peers;
  Rw.Writer.u16 w e.Pcb.mtu;
  Rw.Writer.u16 w (String.length e.Pcb.note);
  Rw.Writer.raw w e.Pcb.note;
  if with_signature then begin
    Rw.Writer.u16 w (String.length e.Pcb.signature);
    Rw.Writer.raw w e.Pcb.signature
  end

let signed_bytes_upto (t : Pcb.t) i =
  let w = Rw.Writer.create () in
  Rw.Writer.raw w "PCB1";
  Rw.Writer.u16 w t.Pcb.seg_id;
  Rw.Writer.u32 w t.Pcb.timestamp;
  List.iteri
    (fun idx e ->
      if idx < i then entry w ~with_signature:true e
      else if idx = i then entry w ~with_signature:false e)
    t.Pcb.entries;
  Rw.Writer.contents w
