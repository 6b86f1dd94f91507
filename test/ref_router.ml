(* Reference border router: the structured forwarding engine over decoded
   packets, kept as the test oracle for [Router.process_view]. Each decision
   reads directly against the SCION spec; the conformance suites drive both
   engines in lockstep and compare verdicts, drop reasons, wire bytes and
   counters after every hop. The oracle keeps its own interface table,
   interface state and counters, sharing nothing mutable with the router. *)

open Scion_dataplane

(* The hop MAC check by recomputation, independent of the staged in-place
   comparison the router uses. *)
let verify_mac key ~seg_id ~timestamp (hop : Path.hop) =
  String.equal (Path.compute_mac key ~seg_id ~timestamp hop) hop.Path.mac

(* --- Decoded-path cursor ------------------------------------------------ *)
(* The structured counterpart of the cursor [Packet.View] keeps in the
   wire buffer: [curr_inf]/[curr_hf] index the current info and hop field,
   and against construction direction a hop's ingress/egress roles swap. *)

let current_info (p : Path.t) = p.Path.infos.(p.Path.curr_inf)
let current_hop (p : Path.t) = p.Path.hops.(p.Path.curr_hf)
let set_seg_id p v = (current_info p).Path.seg_id <- v land 0xFFFF
let at_last_hop (p : Path.t) = p.Path.curr_hf = Array.length p.Path.hops - 1

let seg_start (p : Path.t) inf = Array.fold_left ( + ) 0 (Array.sub p.Path.lens 0 inf)
let curr_is_seg_first (p : Path.t) = p.Path.curr_hf = seg_start p p.Path.curr_inf

let curr_is_seg_last (p : Path.t) =
  p.Path.curr_hf = seg_start p p.Path.curr_inf + p.Path.lens.(p.Path.curr_inf) - 1

let advance (p : Path.t) =
  if at_last_hop p then raise (Path.Malformed "advance past last hop");
  if curr_is_seg_last p then p.Path.curr_inf <- p.Path.curr_inf + 1;
  p.Path.curr_hf <- p.Path.curr_hf + 1

let traversal_ingress p =
  let hop = current_hop p in
  if (current_info p).Path.cons_dir then hop.Path.cons_ingress else hop.Path.cons_egress

let traversal_egress p =
  let hop = current_hop p in
  if (current_info p).Path.cons_dir then hop.Path.cons_egress else hop.Path.cons_ingress

(* --- The reference engine ------------------------------------------------ *)

type verdict =
  | Deliver of Packet.t  (* hand to the local end host *)
  | Forward of { egress : int; packet : Packet.t }
  | Drop of Router.drop_reason

type t = {
  ia : Scion_addr.Ia.t;
  key : Scion_crypto.Cmac.key;
  ifaces : (int, unit) Hashtbl.t;
  down : (int, unit) Hashtbl.t;
  stats : Router.counters;
}

let create ~ia ~key ~(ifaces : Router.iface list) =
  let table = Hashtbl.create 8 in
  List.iter (fun (i : Router.iface) -> Hashtbl.replace table i.Router.ifid ()) ifaces;
  {
    ia;
    key = Fwkey.cmac_key key;
    ifaces = table;
    down = Hashtbl.create 4;
    stats = { Router.forwarded = 0; delivered = 0; dropped = 0; mac_failures = 0 };
  }

let set_interface_state t ifid ~up =
  if up then Hashtbl.remove t.down ifid else Hashtbl.replace t.down ifid ()

let drop t reason =
  t.stats.Router.dropped <- t.stats.Router.dropped + 1;
  (match reason with
  | Router.Invalid_mac -> t.stats.Router.mac_failures <- t.stats.Router.mac_failures + 1
  | _ -> ());
  Drop reason

let deliver t pkt =
  t.stats.Router.delivered <- t.stats.Router.delivered + 1;
  Deliver pkt

(* Verify the current hop field and fold/unfold the segment identifier. A
   peer hop (first hop of a construction-direction peering segment, or last
   hop of a reversed one) verifies against the current seg_id directly, with
   no fold. *)
let verify_current t ~now path =
  let info = current_info path in
  let hop = current_hop path in
  let expiry = Path.hop_expiry info hop in
  if now > expiry then Error (Router.Expired_hop { expired_at = expiry })
  else begin
    let is_peer_hop =
      info.Path.peer
      && if info.Path.cons_dir then curr_is_seg_first path else curr_is_seg_last path
    in
    let ts = info.Path.timestamp in
    if is_peer_hop then
      if verify_mac t.key ~seg_id:info.Path.seg_id ~timestamp:ts hop then Ok ()
      else Error Router.Invalid_mac
    else if info.Path.cons_dir then
      if verify_mac t.key ~seg_id:info.Path.seg_id ~timestamp:ts hop then begin
        set_seg_id path (Path.chain_seg_id ~seg_id:info.Path.seg_id ~mac:hop.Path.mac);
        Ok ()
      end
      else Error Router.Invalid_mac
    else begin
      let beta = Path.chain_seg_id ~seg_id:info.Path.seg_id ~mac:hop.Path.mac in
      if verify_mac t.key ~seg_id:beta ~timestamp:ts hop then begin
        set_seg_id path beta;
        Ok ()
      end
      else Error Router.Invalid_mac
    end
  end

let forward_out t pkt path egress =
  if egress = 0 then drop t (Router.Path_malformed "no egress interface on a transit hop")
  else if Hashtbl.mem t.down egress then drop t (Router.Interface_down egress)
  else if not (Hashtbl.mem t.ifaces egress) then drop t (Router.Unknown_interface egress)
  else begin
    if not (at_last_hop path) then advance path;
    t.stats.Router.forwarded <- t.stats.Router.forwarded + 1;
    Forward { egress; packet = pkt }
  end

(* [process t ~now ~ingress pkt] forwards one packet; [ingress] 0 means
   "from inside the AS". The returned packet shares the (mutated) path. *)
let process t ~now ~ingress pkt =
  let deliver_or_drop () =
    if Scion_addr.Ia.equal pkt.Packet.dst_ia t.ia then deliver t pkt
    else drop t Router.Not_for_us
  in
  match pkt.Packet.path with
  | Packet.Empty -> deliver_or_drop ()
  | Packet.Standard path -> (
      let hop_ingress = traversal_ingress path in
      (* The ingress interface is checked only for packets arriving from
         outside; locally originated traffic may start on any hop field. *)
      if ingress <> 0 && hop_ingress <> ingress then
        drop t (Router.Ingress_mismatch { expected = hop_ingress; actual = ingress })
      else
        match verify_current t ~now path with
        | Error reason -> drop t reason
        | Ok () ->
            (* Terminal hop: delivery is positional, which also covers
               on-path destinations whose cut segment ends mid-tree. *)
            if at_last_hop path then deliver_or_drop ()
            else if curr_is_seg_last path && not (current_info path).Path.peer then begin
              (* Segment crossover: verify the next segment's first hop (same
                 AS) and leave through its egress. Peering segments switch on
                 the wire instead, across the peering link. *)
              advance path;
              match verify_current t ~now path with
              | Error reason -> drop t reason
              | Ok () ->
                  if at_last_hop path then deliver_or_drop ()
                  else forward_out t pkt path (traversal_egress path)
            end
            else forward_out t pkt path (traversal_egress path))

(* The oracle's counters must equal the router's after a lockstep run. *)
let counters_agree t r =
  let a = t.stats and b = Router.counters r in
  a.Router.forwarded = b.Router.forwarded
  && a.Router.delivered = b.Router.delivered
  && a.Router.dropped = b.Router.dropped
  && a.Router.mac_failures = b.Router.mac_failures
