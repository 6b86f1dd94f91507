module Ia = Scion_addr.Ia
module Pan = Scion_endhost.Pan
module Daemon = Scion_endhost.Daemon
module Boot = Scion_endhost.Bootstrap
module Hints = Scion_endhost.Hints
module Combinator = Scion_controlplane.Combinator
module Mesh = Scion_controlplane.Mesh
module Packet = Scion_dataplane.Packet

type t = {
  network : Network.t;
  host_ia : Ia.t;
  host_mode : Pan.mode;
  timing : Boot.timing;
  host_daemon : Daemon.t;
}

(* The AS's bootstrapping infrastructure, as the paper's Figure 2: a local
   web server carrying the signed topology and the ISD's TRCs. *)
let local_server network ia =
  let mesh = Network.mesh network in
  let cert = Mesh.cert_of mesh ia in
  (* The topology file is signed by the AS; the simulated AS signing key is
     reachable through the mesh's deterministic derivation. *)
  let signer, _ =
    Scion_crypto.Schnorr.derive
      ~seed:
        (Printf.sprintf "%Ld/as/%s" (Mesh.config mesh).Mesh.seed (Ia.to_string ia))
  in
  let topology =
    Boot.sign_topology ~ia
      ~border_routers:[ Scion_addr.Ipv4.endpoint_of_string "10.0.0.2:30042" ]
      ~control_service:(Scion_addr.Ipv4.endpoint_of_string "10.0.0.3:30252")
      ~signer
  in
  let trc = Mesh.trc mesh ia.Ia.isd in
  ( { Boot.endpoint = Scion_addr.Ipv4.endpoint_of_string "10.0.0.1:8041"; topology; trcs = [ trc ] },
    cert.Scion_cppki.Cert.pubkey )

let campus_env =
  {
    Hints.static_ips_only = false;
    dhcp = true;
    dhcpv6 = false;
    ipv6_ras = true;
    dns_search_domain = true;
  }

let attach network ~ia () =
  match Topology.find ia with
  | exception Not_found -> Error (Printf.sprintf "AS %s is not part of SCIERA" (Ia.to_string ia))
  | _info -> (
      let server, as_key = local_server network ia in
      let rng = Scion_util.Rng.of_label 0xB001L (Ia.to_string ia) in
      match
        Boot.run ~rng ~os:Boot.Linux ~env:campus_env ~server:(Some server) ~as_cert_key:as_key ()
      with
      | Error e -> Error (Boot.error_to_string e)
      | Ok (_topo, _trc, timing) ->
          let fetch ~dst = Network.paths network ~src:ia ~dst in
          let metrics = Option.map Obs.registry (Network.telemetry network) in
          let host_daemon = Daemon.create ~ia ~fetch ?metrics () in
          Ok
            {
              network;
              host_ia = ia;
              host_mode = Pan.choose_mode ~daemon_available:true ~bootstrapper_available:true;
              timing;
              host_daemon;
            })

let mode t = t.host_mode
let bootstrap_timing t = t.timing

let paths t ~dst = fst (Daemon.lookup t.host_daemon ~now:(Network.now_unix t.network) ~dst)
let latency_estimate t fp = Network.scion_rtt_base t.network fp

let transport t fp ~payload =
  match
    Scion_controlplane.Mesh.walk (Network.mesh t.network) ~now:(Network.now_unix t.network)
      ~payload fp
  with
  | Scion_controlplane.Mesh.Walk_delivered _ -> (
      match Network.scion_rtt_sample t.network fp with
      | `Rtt rtt_ms -> Pan.Conn.Sent { rtt_ms }
      | `Lost -> Pan.Conn.Send_failed)
  | Scion_controlplane.Mesh.Walk_dropped _ -> Pan.Conn.Send_failed

let dial t ~dst ?(policy = Pan.default_policy) () =
  let metrics = Option.map Obs.registry (Network.telemetry t.network) in
  Pan.Conn.dial ?metrics ~peer:(Ia.to_string dst) ~policy ~latency_of:(latency_estimate t)
    ~transport:(transport t) ~paths:(paths t ~dst) ()

let ping t ~dst =
  match dial t ~dst () with
  | Error _ -> `Unreachable
  | Ok conn -> (
      match Pan.Conn.send conn ~payload:(Scion_dataplane.Scmp.encode (Scion_dataplane.Scmp.Echo_request { id = 1; seq = 1; data = "ping" })) with
      | Pan.Conn.Sent { rtt_ms } -> `Rtt rtt_ms
      | Pan.Conn.Send_failed -> `Unreachable)

let request t ~dst ?(policy = Pan.default_policy) ~payload ~handler () =
  let mesh = Network.mesh t.network in
  let now = Network.now_unix t.network in
  let sorted =
    Pan.sort_paths policy ~latency_of:(latency_estimate t)
      (Pan.filter_paths policy (paths t ~dst))
  in
  match sorted with
  | [] -> Error "no path satisfies the policy"
  | fp :: _ -> (
      match Mesh.walk mesh ~now ~payload fp with
      | Mesh.Walk_dropped { at; reason } ->
          Error
            (Printf.sprintf "request dropped at %s: %s" (Ia.to_string at)
               (Scion_dataplane.Router.drop_reason_to_string reason))
      | Mesh.Walk_delivered { packet; _ } -> (
          let answer = handler packet.Packet.payload in
          let reply = Packet.reply_skeleton packet ~payload:answer in
          match Mesh.walk_packet mesh ~now ~from:dst reply with
          | Mesh.Walk_dropped { at; reason } ->
              Error
                (Printf.sprintf "reply dropped at %s: %s" (Ia.to_string at)
                   (Scion_dataplane.Router.drop_reason_to_string reason))
          | Mesh.Walk_delivered _ -> (
              match Network.scion_rtt_sample t.network fp with
              | `Rtt rtt -> Ok (`Reply (answer, rtt))
              | `Lost -> Error "reply lost")))
