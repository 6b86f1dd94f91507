module Rng = Scion_util.Rng
module Rw = Scion_util.Rw

type topology_file = {
  ia : Scion_addr.Ia.t;
  border_routers : Scion_addr.Ipv4.endpoint list;
  control_service : Scion_addr.Ipv4.endpoint;
  signature : string;
}

let topology_signed_bytes t =
  let w = Rw.Writer.create () in
  Rw.Writer.raw w "TOPO1";
  Scion_addr.Ia.encode w t.ia;
  Rw.Writer.u16 w (List.length t.border_routers);
  List.iter
    (fun (e : Scion_addr.Ipv4.endpoint) ->
      Rw.Writer.u32 w (Scion_addr.Ipv4.to_int32 e.Scion_addr.Ipv4.host);
      Rw.Writer.u16 w e.Scion_addr.Ipv4.port)
    t.border_routers;
  Rw.Writer.u32 w (Scion_addr.Ipv4.to_int32 t.control_service.Scion_addr.Ipv4.host);
  Rw.Writer.u16 w t.control_service.Scion_addr.Ipv4.port;
  Rw.Writer.contents w

let sign_topology ~ia ~border_routers ~control_service ~signer =
  let unsigned = { ia; border_routers; control_service; signature = "" } in
  { unsigned with signature = Scion_crypto.Schnorr.sign signer (topology_signed_bytes unsigned) }

let verify_topology t ~key =
  Scion_crypto.Schnorr.verify key
    ~msg:(topology_signed_bytes { t with signature = "" })
    ~signature:t.signature

type server = {
  endpoint : Scion_addr.Ipv4.endpoint;
  topology : topology_file;
  trcs : Scion_cppki.Trc.t list;
}

type os = Windows | Linux | Macos

let os_name = function Windows -> "Windows" | Linux -> "Linux" | Macos -> "macOS"
let all_oses = [ Windows; Linux; Macos ]

type timing = {
  mechanism : Hints.mechanism;
  hint_ms : float;
  config_ms : float;
  total_ms : float;
}

type error =
  | No_hint_available
  | Server_unreachable
  | Topology_signature_invalid
  | Trc_chain_invalid of string

let error_to_string = function
  | No_hint_available -> "no bootstrapping hint mechanism available on this network"
  | Server_unreachable -> "bootstrapping server unreachable"
  | Topology_signature_invalid -> "topology file signature invalid"
  | Trc_chain_invalid m -> "TRC chain invalid: " ^ m

(* Latency model. Base costs reflect the protocol mechanics: DHCP needs a
   request/response exchange with a (slowish) lease server; NDP RAs are
   cached by the OS and near-instant to read; unicast DNS is one resolver
   round trip; mDNS must multicast and wait for responders. The per-OS
   factors reflect socket-stack and service-layer differences: the figure's
   Windows runs show higher medians and heavier tails, macOS sits between
   Windows and Linux. *)
let os_factor = function Windows -> 1.9 | Linux -> 1.0 | Macos -> 1.3
let os_floor_ms = function Windows -> 6.0 | Linux -> 1.0 | Macos -> 2.5
let os_tail = function Windows -> 0.35 | Linux -> 0.12 | Macos -> 0.2

let mech_base_ms = function
  | Hints.Dhcp_vivo | Hints.Dhcp_option72 -> 22.0
  | Hints.Dhcpv6_vsio -> 18.0
  | Hints.Ipv6_ndp_ra -> 3.0
  | Hints.Dns_srv | Hints.Dns_naptr -> 9.0
  | Hints.Dns_sd -> 14.0 (* PTR then SRV: two lookups *)
  | Hints.Mdns -> 42.0

let sample ~rng ~os base =
  let jitter = Rng.lognormal rng ~mu:(log (base *. 0.25)) ~sigma:0.8 in
  let spike = if Rng.float rng 1.0 < os_tail os then Rng.float rng (3.0 *. base) else 0.0 in
  os_floor_ms os +. (os_factor os *. base) +. jitter +. spike

let hint_latency_ms ~rng ~os mech = sample ~rng ~os (mech_base_ms mech)

(* Config retrieval: TCP handshake + HTTP GET /topology + GET /trcs against
   a LAN server, ~3 round trips plus server work. *)
let config_latency_ms ~rng ~os = sample ~rng ~os 16.0

let run ~rng ~os ~env ~server ~as_cert_key ?force_mechanism () =
  let mechanisms =
    match force_mechanism with
    | Some m -> if Hints.available m env <> Hints.Not_applicable then [ m ] else []
    | None -> Hints.preferred_order env
  in
  match mechanisms with
  | [] -> Error No_hint_available
  | mech :: _ -> (
      let hint_ms = hint_latency_ms ~rng ~os mech in
      match server with
      | None -> Error Server_unreachable
      | Some srv -> (
          let config_ms = config_latency_ms ~rng ~os in
          if not (verify_topology srv.topology ~key:as_cert_key) then
            Error Topology_signature_invalid
          else begin
            match srv.trcs with
            | [] -> Error (Trc_chain_invalid "server provided no TRCs")
            | base :: updates -> (
                match Scion_cppki.Trc.verify_chain ~base updates with
                | Error m -> Error (Trc_chain_invalid m)
                | Ok latest ->
                    Ok
                      ( srv.topology,
                        latest,
                        { mechanism = mech; hint_ms; config_ms; total_ms = hint_ms +. config_ms } ))
          end))
