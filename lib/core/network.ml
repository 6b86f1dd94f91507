module Mesh = Scion_controlplane.Mesh
module Combinator = Scion_controlplane.Combinator
module Ia = Scion_addr.Ia
module Net = Netsim.Net
module Rng = Scion_util.Rng

type t = {
  topo : Topology.spec;  (** The instantiated description (Figure 1 or generated). *)
  mesh : Mesh.t;
  net : Net.t;  (** SCION Layer-2 fabric; link ids match topology order. *)
  ip : Net.t;  (** Commodity-Internet overlay. *)
  ip_rng : Rng.t;
  node : (Ia.t, Net.node) Hashtbl.t;
  ipnode : (Ia.t, Net.node) Hashtbl.t;
  iface_link : (Ia.t * int, int) Hashtbl.t;  (** (ia, ifid) -> shared link index *)
  calendar : Incidents.timeline;  (** The incident calendar over the fabric's links. *)
  mutable day : float;
  mutable last_beacon_day : float;
  ip_routes : (Ia.t * Ia.t, (Net.link_id list * float) option) Hashtbl.t;
      (** (src, dst) -> overlay route and BGP detour factor, compiled on
          first use. Never invalidated: [ip] is written only inside
          {!create} (calendar days, faults and adversaries touch the SCION
          fabric alone), so both are fixed for the network's lifetime. *)
  links_cache : (string, Net.link_id list) Hashtbl.t;
      (** fullpath fingerprint -> fabric links; safe across epochs because
          the interface-id assignment is fixed at construction. *)
  mutable rebeacons : int;
  mutable probe_seq : int;
  obs : Obs.t option;
}

let mesh t = t.mesh
let topology t = t.topo
let now_unix t = Incidents.window_start_unix +. (t.day *. Incidents.day_seconds)
let scion_fabric t = t.net
let rng t = t.ip_rng
let rebeacon_count t = t.rebeacons
let telemetry t = t.obs

(* Total lookups into the graph-node tables. All keys come from
   Topology.ases / Topology.ip_hubs, which also populate the tables, so a
   miss is a topology bug and gets a clear error. *)
let lookup what to_string tbl key =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Network: unknown %s %s" what (to_string key))

(* Write a link's state to the fabric, the mesh and its routers; returns
   whether the fabric link changed state (nothing is written otherwise). *)
let set_link_up t id up =
  let changed = Net.link_up t.net id <> up in
  if changed then begin
    Net.set_link_up t.net id up;
    Mesh.set_link_state t.mesh id ~up
  end;
  changed

let rebeacon t =
  Mesh.run_beaconing t.mesh ~now:(now_unix t);
  t.last_beacon_day <- t.day;
  t.rebeacons <- t.rebeacons + 1

(* Write only the link state that differs from the calendar's for [day]. *)
let set_day t day =
  if not (Float.is_finite day) then
    invalid_arg (Printf.sprintf "Network.set_day: day must be finite (got %g)" day);
  t.day <- day;
  let changed = ref false in
  List.iteri
    (fun id _ ->
      let { Incidents.up; extra_ms } = Incidents.state_at t.calendar id day in
      if set_link_up t id up then changed := true;
      if not (Float.equal (Net.extra_latency t.net id) extra_ms) then
        Net.set_extra_latency t.net id extra_ms)
    t.topo.Topology.spec_links;
  if !changed || day -. t.last_beacon_day > 0.8 || day < t.last_beacon_day then rebeacon t

let create ?(seed = 0x5C1E_7A5EL) ?(per_origin = 20) ?(verify_pcbs = true)
    ?(topology = Topology.sciera) ?(rounds = 10) ?propagate_k ?fanout_cap
    ?quarantine ?telemetry () =
  let config =
    {
      Mesh.seed;
      per_origin;
      propagate_k = (match propagate_k with Some k -> k | None -> per_origin);
      rounds;
      verify_pcbs;
      fanout_cap;
      quarantine;
    }
  in
  let ases =
    List.map
      (fun (a : Topology.as_info) ->
        {
          Mesh.spec_ia = a.Topology.ia;
          core = a.Topology.core;
          ca = a.Topology.ca;
          profile = a.Topology.profile;
          note =
            (match a.Topology.profile with
            | Scion_cppki.Cert.Open_source -> "open-source"
            | Scion_cppki.Cert.Proprietary -> "anapaya");
        })
      topology.Topology.spec_ases
  in
  let mesh_links =
    List.map
      (fun (l : Topology.link_info) -> { Mesh.l_a = l.Topology.a; l_b = l.Topology.b; cls = l.Topology.cls })
      topology.Topology.spec_links
  in
  let metrics = Option.map Obs.registry telemetry in
  let mesh =
    Mesh.create ~config ?metrics ~now:Incidents.window_start_unix ~ases ~links:mesh_links ()
  in
  let rng_root = Rng.create seed in
  let net = Net.create ~rng:(Rng.split rng_root) in
  let ip = Net.create ~rng:(Rng.split rng_root) in
  (match telemetry with
  | None -> ()
  | Some obs ->
      Obs.wire_fabric obs ~name:"scion" net;
      Obs.wire_fabric obs ~name:"ip" ip);
  let node = Hashtbl.create 64 and ipnode = Hashtbl.create 64 in
  List.iter
    (fun (a : Topology.as_info) ->
      Hashtbl.replace node a.Topology.ia (Net.add_node net (Ia.to_string a.Topology.ia));
      Hashtbl.replace ipnode a.Topology.ia (Net.add_node ip (Ia.to_string a.Topology.ia)))
    topology.Topology.spec_ases;
  List.iter
    (fun (l : Topology.link_info) ->
      ignore
        (Net.add_link net
           (lookup "AS" Ia.to_string node l.Topology.a)
           (lookup "AS" Ia.to_string node l.Topology.b)
           {
             (* Software border routers on commodity servers add per-hop
                forwarding latency, and R&E circuits are not perfectly
                geodesic: +5.5% and +0.5 ms per link vs raw propagation. *)
             Net.latency_ms = (l.Topology.latency_ms *. 1.055) +. 0.5;
             jitter_ms = l.Topology.jitter_ms;
             loss = 0.0005;
             bandwidth_mbps = 10_000.0;
           }))
    topology.Topology.spec_links;
  (* Internet overlay: hubs plus per-AS access links. *)
  let iphub = Hashtbl.create 16 in
  List.iter
    (fun (h : Topology.ip_hub) ->
      Hashtbl.replace iphub h.Topology.hub_name (Net.add_node ip ("hub:" ^ h.Topology.hub_name)))
    Topology.ip_hubs;
  List.iter
    (fun (ha, hb, ms) ->
      ignore
        (Net.add_link ip (lookup "hub" Fun.id iphub ha) (lookup "hub" Fun.id iphub hb)
           { Net.latency_ms = ms; jitter_ms = ms *. 0.16; loss = 0.0008; bandwidth_mbps = 100_000.0 }))
    Topology.ip_hub_links;
  List.iter
    (fun (a : Topology.as_info) ->
      let hub, ms = Topology.ip_access_for a in
      ignore
        (Net.add_link ip
           (lookup "AS" Ia.to_string ipnode a.Topology.ia)
           (lookup "hub" Fun.id iphub hub)
           { Net.latency_ms = ms; jitter_ms = Float.max 0.3 (ms *. 0.12); loss = 0.0003; bandwidth_mbps = 10_000.0 }))
    topology.Topology.spec_ases;
  let iface_link = Hashtbl.create 128 in
  List.iter
    (fun (id, (spec : Mesh.link_spec)) ->
      let a_if, b_if = Mesh.link_interfaces mesh id in
      Hashtbl.replace iface_link (spec.Mesh.l_a, a_if) id;
      Hashtbl.replace iface_link (spec.Mesh.l_b, b_if) id)
    (Mesh.links mesh);
  let t =
    {
      topo = topology;
      mesh;
      net;
      ip;
      ip_rng = Rng.split rng_root;
      node;
      ipnode;
      iface_link;
      calendar = Incidents.compile Incidents.calendar topology.Topology.spec_links;
      day = 0.0;
      last_beacon_day = -1.0;
      ip_routes = Hashtbl.create 512;
      links_cache = Hashtbl.create 256;
      rebeacons = 0;
      probe_seq = 0;
      obs = telemetry;
    }
  in
  set_day t 0.0;
  t

(* Apply one fault-injector op to the network: both the link fabric and
   the control plane see it. Failures never re-beacon (the data plane has
   to discover them); a repair that brings any link up re-beacons once, so
   recovery does not wait for the next scheduled convergence. *)
let apply_fault t op =
  match op with
  | Fault.Scenario.Link_down id -> ignore (set_link_up t id false)
  | Fault.Scenario.Link_up id -> if set_link_up t id true then rebeacon t
  | Fault.Scenario.Extra_latency { link; ms } -> Net.set_extra_latency t.net link ms
  | Fault.Scenario.Loss_burst { link; loss } -> Net.set_extra_loss t.net link loss
  | Fault.Scenario.Node_down n ->
      List.iter (fun id -> ignore (set_link_up t id false)) (Net.links_of t.net n)
  | Fault.Scenario.Node_up n ->
      let restored =
        List.fold_left (fun acc id -> set_link_up t id true || acc) false (Net.links_of t.net n)
      in
      if restored then rebeacon t
  | Fault.Scenario.Control_down | Fault.Scenario.Control_up -> ()

let inject t ~engine ~rng scenario =
  Fault.Injector.attach ~engine ~apply:(apply_fault t) (Fault.Scenario.elaborate scenario ~rng)

(* --- Adversary interpretation ---------------------------------------- *)

type adversary_stats = {
  mutable adv_injected : int;
  mutable adv_accepted : int;
  mutable adv_last_accept_s : float;
  mutable adv_rogue : int;
  mutable adv_forged_sent : int;
  mutable adv_forged_delivered : int;
  mutable adv_reflect_requests : int;
  mutable adv_reflect_answered : int;
  mutable adv_amp_bytes : int;
  mutable adv_flood_frames : int;
  mutable adv_flood_passed : int;
  mutable adv_wormholes : (Ia.t * Ia.t) list;
  mutable adv_seized : Ia.t list;
}

let wormhole_active stats ~a ~b =
  List.exists
    (fun (x, y) ->
      (Ia.equal x a && Ia.equal y b) || (Ia.equal x b && Ia.equal y a))
    stats.adv_wormholes

(* The reflected echo an SCMP amplifier bounces at its victim: maximum
   padding, the attacker's whole point. *)
let reflect_reply_bytes =
  let module Scmp = Scion_dataplane.Scmp in
  lazy
    (String.length
       (Scmp.encode (Scmp.Echo_reply { id = 0xDD05; seq = 0; data = String.make 1024 'R' })))

(* Interpret one adversary op against the live network. [defended] arms
   the data-plane half of the containment story: a LightningFilter in
   front of flood targets and the SCMP emission throttle on reflectors
   (the control-plane half — verification, quarantine, rotation — is
   configured at {!create} time via [verify_pcbs]/[?quarantine]). *)
let attach_adversary t ~engine ~rng ?(defended = false) adversary =
  let stats =
    {
      adv_injected = 0;
      adv_accepted = 0;
      adv_last_accept_s = Float.neg_infinity;
      adv_rogue = 0;
      adv_forged_sent = 0;
      adv_forged_delivered = 0;
      adv_reflect_requests = 0;
      adv_reflect_answered = 0;
      adv_amp_bytes = 0;
      adv_flood_frames = 0;
      adv_flood_passed = 0;
      adv_wormholes = [];
      adv_seized = [];
    }
  in
  let now () = now_unix t +. Netsim.Engine.now engine in
  let sim_now () = Netsim.Engine.now engine in
  (* Per-target LightningFilter (defended mode): allows the target's real
     neighbors, so the flood must spoof one of them. *)
  let filters : (Ia.t, Science_dmz.Filter.t) Hashtbl.t = Hashtbl.create 4 in
  let filter_for target =
    match Hashtbl.find_opt filters target with
    | Some f -> f
    | None ->
        let allowed =
          List.map (fun (_, nbr, _) -> (nbr, 100_000.0)) (Mesh.neighbors t.mesh target)
        in
        let f =
          Science_dmz.Filter.create
            ~local_secret:("dmz/" ^ Ia.to_string target ^ "/" ^ Int64.to_string (Mesh.config t.mesh).Mesh.seed)
            ~allowed ()
        in
        Hashtbl.replace filters target f;
        f
  in
  let limited : (Ia.t, unit) Hashtbl.t = Hashtbl.create 4 in
  let arm_limiter reflector =
    if defended && not (Hashtbl.mem limited reflector) then begin
      Hashtbl.replace limited reflector ();
      Scion_dataplane.Router.configure_scmp_limiter (Mesh.router t.mesh reflector)
        ~budget_bytes_per_s:2048.0 ()
    end
  in
  let module Packet = Scion_dataplane.Packet in
  let accepted_bogus n =
    if n > 0 then begin
      stats.adv_accepted <- stats.adv_accepted + n;
      stats.adv_last_accept_s <- sim_now ()
    end
  in
  let apply (op : Fault.Adversary.op) =
    match op with
    | Fault.Adversary.Corrupt_beacons { compromised; count } ->
        stats.adv_injected <- stats.adv_injected + count;
        accepted_bogus (Mesh.inject_corrupt_beacons t.mesh ~compromised ~rng ~now:(now ()) ~count)
    | Fault.Adversary.Replay_beacons { compromised; age_s; count } ->
        stats.adv_injected <- stats.adv_injected + count;
        accepted_bogus
          (Mesh.inject_replayed_beacons t.mesh ~compromised ~rng ~now:(now ()) ~age_s ~count)
    | Fault.Adversary.Forge_hop_macs { compromised; count } ->
        let others =
          List.filter (fun ia -> not (Ia.equal ia compromised)) (Mesh.ases t.mesh)
        in
        if others <> [] then
          for _i = 1 to count do
            let dst = List.nth others (Rng.int rng (List.length others)) in
            match Mesh.paths t.mesh ~src:compromised ~dst with
            | [] -> ()
            | fp :: _ -> (
                stats.adv_forged_sent <- stats.adv_forged_sent + 1;
                (* A real path with one attacker-chosen hop field: flip a
                   MAC byte in place through the wire view. *)
                let flip_mac v =
                  let off = Packet.View.curr_mac_off v and buf = Packet.View.buffer v in
                  Bytes.set buf off (Char.chr (Char.code (Bytes.get buf off) lxor 0xff))
                in
                if
                  Mesh.walk_tampered t.mesh ~now:(now ()) ~tamper:flip_mac
                    ~payload:"forged-hop-field" fp
                then stats.adv_forged_delivered <- stats.adv_forged_delivered + 1)
          done
    | Fault.Adversary.Rogue_segments { compromised; victim; count } ->
        let n =
          Mesh.register_rogue_segments t.mesh ~compromised ~victim ~rng ~now:(now ()) ~count
        in
        stats.adv_rogue <- stats.adv_rogue + n
    | Fault.Adversary.Wormhole_up { a; b } ->
        if not (wormhole_active stats ~a ~b) then
          stats.adv_wormholes <- (a, b) :: stats.adv_wormholes
    | Fault.Adversary.Wormhole_down { a; b } ->
        stats.adv_wormholes <-
          List.filter
            (fun (x, y) ->
              not ((Ia.equal x a && Ia.equal y b) || (Ia.equal x b && Ia.equal y a)))
            stats.adv_wormholes
    | Fault.Adversary.Scmp_reflect { reflector; victim = _; count } ->
        arm_limiter reflector;
        let r = Mesh.router t.mesh reflector in
        let bytes = Lazy.force reflect_reply_bytes in
        for _i = 1 to count do
          stats.adv_reflect_requests <- stats.adv_reflect_requests + 1;
          if Scion_dataplane.Router.scmp_allow r ~now:(sim_now ()) ~bytes then begin
            stats.adv_reflect_answered <- stats.adv_reflect_answered + 1;
            stats.adv_amp_bytes <- stats.adv_amp_bytes + bytes
          end
        done
    | Fault.Adversary.Volumetric_flood { attacker = _; target; packets; duplicate_pct } ->
        stats.adv_flood_frames <- stats.adv_flood_frames + packets;
        if not defended then stats.adv_flood_passed <- stats.adv_flood_passed + packets
        else begin
          let f = filter_for target in
          let spoofed =
            match Mesh.neighbors t.mesh target with
            | (_, nbr, _) :: _ -> nbr
            | [] -> target
          in
          let dups = packets * duplicate_pct / 100 in
          let captured_payload = "captured-genuine-frame" in
          let captured_tag =
            Science_dmz.Filter.authenticate
              ~key:(Science_dmz.Filter.host_key f ~peer:spoofed)
              ~payload:captured_payload
          in
          let frames =
            List.init packets (fun i ->
                if i < dups then (spoofed, captured_payload, captured_tag)
                else
                  (* Spoofed source, garbage MAC: the attacker has no
                     DRKey, only random bytes. *)
                  (spoofed, Printf.sprintf "junk-%d" i, Printf.sprintf "%016x" (Rng.int rng 0x3FFFFFFF)))
          in
          List.iter
            (fun verdict ->
              if verdict = Science_dmz.Filter.Accepted then
                stats.adv_flood_passed <- stats.adv_flood_passed + 1)
            (Science_dmz.Filter.check_batch f ~now:(sim_now ()) frames)
        end
    | Fault.Adversary.Trc_compromise { isd } -> (
        match
          List.find_opt
            (fun (ia : Ia.t) -> ia.Ia.isd = isd && Mesh.is_core t.mesh ia)
            (Mesh.ases t.mesh)
        with
        | None -> invalid_arg (Printf.sprintf "Network adversary: no core AS in ISD %d" isd)
        | Some victim ->
            Mesh.seize_as t.mesh ~ia:victim ~now:(now ());
            stats.adv_seized <- victim :: stats.adv_seized)
    | Fault.Adversary.Trc_rotate { isd } -> Mesh.rotate_trc t.mesh ~isd ~now:(now ())
  in
  (Fault.Injector.attach ~engine ~apply (Fault.Adversary.elaborate adversary ~rng), stats)

let paths t ~src ~dst = Mesh.paths t.mesh ~src ~dst

let live_paths t ~src ~dst =
  List.filter (fun p -> Mesh.path_alive t.mesh ~now:(now_unix t) p) (paths t ~src ~dst)

let path_links t (fp : Combinator.fullpath) =
  match Hashtbl.find_opt t.links_cache fp.Combinator.fingerprint with
  | Some ids -> ids
  | None ->
      let rec go = function
        | [] | [ _ ] -> []
        | (h : Scion_addr.Hop_pred.hop) :: rest ->
            let id =
              match
                Hashtbl.find_opt t.iface_link
                  (h.Scion_addr.Hop_pred.ia, h.Scion_addr.Hop_pred.egress)
              with
              | Some id -> id
              | None ->
                  invalid_arg
                    (Printf.sprintf "Network.path_links: unknown interface %s#%d"
                       (Ia.to_string h.Scion_addr.Hop_pred.ia)
                       h.Scion_addr.Hop_pred.egress)
            in
            id :: go rest
      in
      let ids = go fp.Combinator.interfaces in
      Hashtbl.replace t.links_cache fp.Combinator.fingerprint ids;
      ids

(* Directed traversal of a path's fabric links for the traffic engine:
   walk from the source endpoint of the first link, flipping to the far
   endpoint across each. [path_links] is undirected and cached; only the
   walk direction depends on [src]. *)
let path_hops t ~src (fp : Combinator.fullpath) =
  let start = lookup "AS" Ia.to_string t.node src in
  let rec go at = function
    | [] -> []
    | id :: rest ->
        let a, b = Net.endpoints t.net id in
        let next =
          if at = a then b
          else if at = b then a
          else
            invalid_arg
              (Printf.sprintf "Network.path_hops: link %d is not incident to the walk" id)
        in
        { Traffic.Flow.link = id; from = at } :: go next rest
  in
  go start (path_links t fp)

let arm_capacities t ~bps ~queue_pkts =
  for id = 0 to Net.num_links t.net - 1 do
    Net.set_capacity t.net id ~bps ~queue_pkts
  done

let path_headroom_bps t ~src fp =
  List.fold_left
    (fun acc (h : Traffic.Flow.hop) ->
      match Net.capacity t.net h.link with
      | None -> acc
      | Some (cap, _) -> Float.min acc (cap -. Net.fluid_load t.net h.link ~from:h.from))
    infinity (path_hops t ~src fp)

let scion_rtt_sample t fp = Net.path_rtt t.net (path_links t fp)
let scion_rtt_base t fp = 2.0 *. Net.path_base_latency t.net (path_links t fp)

(* One SCMP echo over [fp]: request walked hop by hop through the border
   routers (deterministic dataplane ground truth — down interfaces, expired
   hop fields), reply walked back over the reversed path, and the RTT/loss
   sampled from the link model with the *caller's* RNG. The workload stream
   ([t.net]'s own rng) is never touched, so attaching probers leaves every
   existing figure byte-identical. *)
let scmp_probe t ~rng (fp : Combinator.fullpath) =
  let module Packet = Scion_dataplane.Packet in
  let module Scmp = Scion_dataplane.Scmp in
  t.probe_seq <- (t.probe_seq + 1) land 0xFFFF;
  let request = Scmp.encode (Scmp.Echo_request { id = 0x9A11; seq = t.probe_seq; data = "pathmon" }) in
  let now = now_unix t in
  match Mesh.walk t.mesh ~now ~payload:request ~proto:Packet.Scmp fp with
  | Mesh.Walk_dropped _ -> `Lost
  | Mesh.Walk_delivered { dst; packet; _ } when Ia.equal dst fp.Combinator.dst -> (
      match Scmp.echo_reply_for packet.Packet.payload with
      | None -> `Lost
      | Some reply_payload -> (
          let reply = Packet.reply_skeleton packet ~payload:reply_payload in
          match Mesh.walk_packet t.mesh ~now ~from:fp.Combinator.dst reply with
          | Mesh.Walk_delivered { dst; _ } when Ia.equal dst fp.Combinator.src ->
              Net.path_rtt_with t.net ~rng (path_links t fp)
          | Mesh.Walk_delivered _ | Mesh.Walk_dropped _ -> `Lost))
  | Mesh.Walk_delivered _ -> `Lost

(* BGP path quality is heterogeneous: most pairs get a reasonable route,
   but a sizeable minority detour through distant exchange points or
   congested transit (the well-documented BGP path-inflation long tail).
   The factor is a deterministic function of the unordered AS pair, so the
   same pairs are "unlucky" for the whole campaign — which is what lets
   SCION win big exactly where the paper's Figure 5 tail shows it. *)
let bgp_detour_factor src dst =
  let key =
    let a = Ia.to_string src and b = Ia.to_string dst in
    if a < b then a ^ "|" ^ b else b ^ "|" ^ a
  in
  let h = Hashtbl.hash ("bgp-detour" ^ key) in
  let u = float_of_int (h land 0xFFFF) /. 65536.0 in
  if u < 0.22 then 1.38 +. (0.8 *. u /. 0.22)
  else if u < 0.40 then 1.16
  else 0.94

(* The pair's min-hop overlay route and detour factor ([None] if the
   overlay is partitioned), compiled on first use. *)
let ip_route t ~src ~dst =
  let key = (src, dst) in
  match Hashtbl.find_opt t.ip_routes key with
  | Some r -> r
  | None ->
      let a = lookup "AS" Ia.to_string t.ipnode src
      and b = lookup "AS" Ia.to_string t.ipnode dst in
      let r =
        Option.map
          (fun route -> (route, bgp_detour_factor src dst))
          (Net.min_hop_route t.ip ~src:a ~dst:b)
      in
      Hashtbl.replace t.ip_routes key r;
      r

let ip_rtt_sample t ~src ~dst =
  match ip_route t ~src ~dst with
  | None -> `Lost
  | Some (route, f) -> (
      match Net.path_rtt t.ip route with
      | `Lost -> `Lost
      | `Rtt ms -> `Rtt (ms *. f))

let ip_rtt_base t ~src ~dst =
  match ip_route t ~src ~dst with
  | None -> None
  | Some (route, f) -> Some (2.0 *. Net.path_base_latency t.ip route *. f)
