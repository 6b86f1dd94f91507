module M = Telemetry.Metrics

type iface = { ifid : int; remote_ia : Scion_addr.Ia.t; remote_ifid : int }

type counters = {
  mutable forwarded : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable mac_failures : int;
}

type drop_reason =
  | Not_for_us
  | Invalid_mac
  | Expired_hop of { expired_at : float }
  | Ingress_mismatch of { expected : int; actual : int }
  | Unknown_interface of int
  | Interface_down of int
  | Path_malformed of string

let drop_reason_to_string = function
  | Not_for_us -> "empty-path packet for another AS"
  | Invalid_mac -> "invalid hop field MAC"
  | Expired_hop { expired_at } -> Printf.sprintf "hop field expired at %.0f" expired_at
  | Ingress_mismatch { expected; actual } ->
      Printf.sprintf "ingress mismatch: hop field says %d, packet arrived on %d" expected actual
  | Unknown_interface i -> Printf.sprintf "no such interface %d" i
  | Interface_down i -> Printf.sprintf "interface %d is down" i
  | Path_malformed m -> Printf.sprintf "malformed path: %s" m

let drop_slug reason =
  match reason with
  | Not_for_us -> "not_for_us"
  | Invalid_mac -> "invalid_mac"
  | Expired_hop _ -> "expired_hop"
  | Ingress_mismatch _ -> "ingress_mismatch"
  | Unknown_interface _ -> "unknown_interface"
  | Interface_down _ -> "interface_down"
  | Path_malformed _ -> "path_malformed"

let drop_slugs =
  [
    "expired_hop";
    "ingress_mismatch";
    "interface_down";
    "invalid_mac";
    "not_for_us";
    "path_malformed";
    "unknown_interface";
  ]

(* The SCMP error a border router would emit for each drop; used as the
   [type] label of [router.scmp_errors]. *)
let scmp_type reason =
  match reason with
  | Invalid_mac -> "invalid_hop_field_mac"
  | Expired_hop _ -> "expired_hop_field"
  | Interface_down _ | Unknown_interface _ -> "external_interface_down"
  | Not_for_us -> "destination_unreachable"
  | Ingress_mismatch _ | Path_malformed _ -> "invalid_path"

let scmp_types =
  [
    "destination_unreachable";
    "expired_hop_field";
    "external_interface_down";
    "invalid_hop_field_mac";
    "invalid_path";
  ]

(* Telemetry handles, created eagerly at [create] so a snapshot of an idle
   router already lists every series (deterministic snapshot shape). *)
type obs = {
  o_forwarded : M.counter;
  o_delivered : M.counter;
  o_dropped : (string * M.counter) list;  (* keyed by drop slug *)
  o_mac_failures : M.counter;
  o_scmp : (string * M.counter) list;  (* keyed by SCMP error type *)
  o_rx : (int * M.counter) list;  (* keyed by interface id *)
  o_tx : (int * M.counter) list;
}

(* SCMP emission throttle: a per-second byte budget, so error traffic — an
   amplification vector when sources are spoofed — is bounded no matter the
   inbound rate. Sits outside the forwarding hotpath. *)
type scmp_limiter = {
  sl_budget : float;  (* bytes per one-second window *)
  mutable sl_window : float;  (* start of the current window *)
  mutable sl_spent : int;
  mutable sl_limited : int;  (* messages suppressed *)
  mutable sl_limited_bytes : int;
}

type t = {
  ia : Scion_addr.Ia.t;
  ia_isd : int;  (* ia, pre-split into ints for allocation-free comparison *)
  ia_asn : int;
  key : Scion_crypto.Cmac.key;
  ifaces : (int, iface) Hashtbl.t;
  iface_state : (int, bool) Hashtbl.t;
  stats : counters;
  obs : obs option;
  mutable last_drop : drop_reason;  (* reason behind the last [drop_v] verdict *)
  mutable scmp_limiter : scmp_limiter option;
}

let make_obs registry ~ia ~ifids =
  let base = [ ("ia", Scion_addr.Ia.to_string ia) ] in
  let counter ?(extra = []) name = M.counter registry ~labels:(base @ extra) name in
  {
    o_forwarded = counter "router.forwarded";
    o_delivered = counter "router.delivered";
    o_dropped =
      List.map (fun slug -> (slug, counter ~extra:[ ("reason", slug) ] "router.dropped")) drop_slugs;
    o_mac_failures = counter "router.mac_failures";
    o_scmp =
      List.map (fun ty -> (ty, counter ~extra:[ ("type", ty) ] "router.scmp_errors")) scmp_types;
    o_rx =
      List.map
        (fun ifid -> (ifid, counter ~extra:[ ("ifid", string_of_int ifid) ] "router.iface_rx_packets"))
        ifids;
    o_tx =
      List.map
        (fun ifid -> (ifid, counter ~extra:[ ("ifid", string_of_int ifid) ] "router.iface_tx_packets"))
        ifids;
  }

let obs_inc entries key =
  match List.assoc_opt key entries with Some c -> M.inc c | None -> ()

let create ?metrics ~ia ~key ~ifaces () =
  let table = Hashtbl.create 8 in
  List.iter
    (fun i ->
      if i.ifid = 0 then invalid_arg "Router.create: interface id 0 is reserved";
      if Hashtbl.mem table i.ifid then
        invalid_arg (Printf.sprintf "Router.create: duplicate interface %d" i.ifid);
      Hashtbl.add table i.ifid i)
    ifaces;
  let ifids = List.sort Int.compare (List.map (fun i -> i.ifid) ifaces) in
  {
    ia;
    ia_isd = ia.Scion_addr.Ia.isd;
    ia_asn = Scion_addr.Ia.asn_to_int ia.Scion_addr.Ia.asn;
    key = Fwkey.cmac_key key;
    ifaces = table;
    iface_state = Hashtbl.create 8;
    stats = { forwarded = 0; delivered = 0; dropped = 0; mac_failures = 0 };
    obs = Option.map (fun registry -> make_obs registry ~ia ~ifids) metrics;
    last_drop = Not_for_us;
    scmp_limiter = None;
  }

let interfaces t =
  List.rev (Scion_util.Table.fold_sorted (fun _ i acc -> i :: acc) t.ifaces [])
let interface t ifid = Hashtbl.find_opt t.ifaces ifid
let set_interface_state t ifid ~up = Hashtbl.replace t.iface_state ifid up

let interface_up t ifid = Scion_util.Table.find_or ~default:true t.iface_state ifid

let scmp_answer t = function
  | Interface_down ifid | Unknown_interface ifid ->
      Some (Scmp.External_interface_down { ia = t.ia; ifid })
  | Expired_hop _ -> Some Scmp.Expired_hop_field
  | Invalid_mac -> Some Scmp.Invalid_hop_field_mac
  | Not_for_us -> Some Scmp.Destination_unreachable
  | Ingress_mismatch _ | Path_malformed _ -> None

let configure_scmp_limiter t ~budget_bytes_per_s () =
  if not (Float.is_finite budget_bytes_per_s) || budget_bytes_per_s <= 0.0 then
    invalid_arg
      (Printf.sprintf "Router.configure_scmp_limiter: budget must be > 0 (got %g)"
         budget_bytes_per_s);
  t.scmp_limiter <-
    Some
      {
        sl_budget = budget_bytes_per_s;
        sl_window = neg_infinity;
        sl_spent = 0;
        sl_limited = 0;
        sl_limited_bytes = 0;
      }

let scmp_allow t ~now ~bytes =
  match t.scmp_limiter with
  | None -> true
  | Some sl ->
      if now >= sl.sl_window +. 1.0 then begin
        sl.sl_window <- Float.of_int (int_of_float now);
        sl.sl_spent <- 0
      end;
      if float_of_int (sl.sl_spent + bytes) <= sl.sl_budget then begin
        sl.sl_spent <- sl.sl_spent + bytes;
        true
      end
      else begin
        sl.sl_limited <- sl.sl_limited + 1;
        sl.sl_limited_bytes <- sl.sl_limited_bytes + bytes;
        false
      end

let scmp_rate_limited t =
  match t.scmp_limiter with
  | None -> (0, 0)
  | Some sl -> (sl.sl_limited, sl.sl_limited_bytes)

(* --- forwarding over the zero-copy wire view ----------------------------- *)

module V = Packet.View

let deliver_verdict = 0
let drop_verdict = -1
let last_drop t = t.last_drop

(* Verify the current hop field and fold/unfold the segment identifier. Hop
   fields are read straight out of the encoded packet and the MAC is checked
   in place against the staged CMAC block — zero allocation for accepted
   hops. Returns [true] on success; on failure stashes the drop reason in
   [t.last_drop] and returns [false]. *)
(* scion-lint: hotpath -- per-packet hop-MAC verification over the wire buffer *)
let verify_current_view t ~now v =
  let timestamp = V.curr_timestamp v in
  let exp_time = V.curr_exp_time v in
  let expiry = Path.hop_expiry_ts ~timestamp ~exp_time in
  if now > expiry then begin
    (* scion-lint: allow hotpath-allocation -- cold drop path: payload-carrying reason built only for rejected packets *)
    t.last_drop <- Expired_hop { expired_at = expiry };
    false
  end
  else begin
    let cons_dir = V.curr_cons_dir v in
    let is_peer_hop =
      V.curr_peer v && if cons_dir then V.curr_is_seg_first v else V.curr_is_seg_last v
    in
    let seg_id = if not is_peer_hop && not cons_dir then V.chain_curr_seg_id v else V.curr_seg_id v in
    Path.stage_mac_fields t.key ~seg_id ~timestamp ~exp_time
      ~cons_ingress:(V.curr_cons_ingress v) ~cons_egress:(V.curr_cons_egress v);
    if
      Scion_crypto.Cmac.verify_staged_bytes t.key ~buf:(V.buffer v) ~off:(V.curr_mac_off v)
        ~len:Path.mac_len
    then begin
      if not is_peer_hop then
        if cons_dir then V.set_curr_seg_id v (V.chain_curr_seg_id v) else V.set_curr_seg_id v seg_id;
      true
    end
    else begin
      t.last_drop <- Invalid_mac;
      false
    end
  end

(* Count a drop and stash the reason for {!last_drop}. *)
let drop_view t reason =
  t.last_drop <- reason;
  t.stats.dropped <- t.stats.dropped + 1;
  (match reason with Invalid_mac -> t.stats.mac_failures <- t.stats.mac_failures + 1 | _ -> ());
  (match t.obs with
  | None -> ()
  | Some o ->
      obs_inc o.o_dropped (drop_slug reason);
      obs_inc o.o_scmp (scmp_type reason);
      (match reason with Invalid_mac -> M.inc o.o_mac_failures | _ -> ()));
  drop_verdict

let deliver_view t =
  t.stats.delivered <- t.stats.delivered + 1;
  (match t.obs with None -> () | Some o -> M.inc o.o_delivered);
  deliver_verdict

let forward_out_view t v egress =
  if egress = 0 then
    (* scion-lint: allow hotpath-allocation -- cold drop path: payload-carrying reason built only for rejected packets *)
    drop_view t (Path_malformed "no egress interface on a transit hop")
  else if not (interface_up t egress) then
    (* scion-lint: allow hotpath-allocation -- cold drop path: payload-carrying reason built only for rejected packets *)
    drop_view t (Interface_down egress)
  else if not (Hashtbl.mem t.ifaces egress) then
    (* scion-lint: allow hotpath-allocation -- cold drop path: payload-carrying reason built only for rejected packets *)
    drop_view t (Unknown_interface egress)
  else begin
    if not (V.at_last_hop v) then V.advance v;
    t.stats.forwarded <- t.stats.forwarded + 1;
    (match t.obs with
    | None -> ()
    | Some o ->
        M.inc o.o_forwarded;
        obs_inc o.o_tx egress);
    egress
  end

let view_for_us t v = V.dst_isd v = t.ia_isd && V.dst_asn v = t.ia_asn

(* scion-lint: hotpath -- the per-packet forwarding entry point, allocation-free over the wire buffer *)
let process_view t ~now ~ingress v =
  (match t.obs with
  | Some o when ingress <> 0 -> obs_inc o.o_rx ingress
  | Some _ | None -> ());
  if not (V.has_path v) then
    if view_for_us t v then deliver_view t else drop_view t Not_for_us
  else begin
    let hop_ingress = V.traversal_ingress v in
    if ingress <> 0 && hop_ingress <> ingress then
      (* scion-lint: allow hotpath-allocation -- cold drop path: payload-carrying reason built only for rejected packets *)
      drop_view t (Ingress_mismatch { expected = hop_ingress; actual = ingress })
    else if not (verify_current_view t ~now v) then drop_view t t.last_drop
    else if V.at_last_hop v then
      if view_for_us t v then deliver_view t else drop_view t Not_for_us
    else if V.curr_is_seg_last v && not (V.curr_peer v) then begin
      V.advance v;
      if not (verify_current_view t ~now v) then drop_view t t.last_drop
      else if V.at_last_hop v then
        if view_for_us t v then deliver_view t else drop_view t Not_for_us
      else forward_out_view t v (V.traversal_egress v)
    end
    else forward_out_view t v (V.traversal_egress v)
  end

let counters t = t.stats
