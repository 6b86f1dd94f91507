(* The four end-to-end workloads. Each is built from the seed alone, runs
   one process with one thread, and drives the simulator as fast as it
   can (closed loop in wall time). A workload is a set-up, which main.ml
   repeats and times, and a sequence of deterministic passes, which main.ml
   repeats until the measuring time is spent. Every op is timed
   from outside, and in a traced run every call into a layer's public
   function is wrapped in a span. *)

module Ia = Scion_addr.Ia
module Rng = Scion_util.Rng
module Mesh = Scion_controlplane.Mesh
module Combinator = Scion_controlplane.Combinator
module Sigcache = Scion_controlplane.Sigcache
module Pcb = Scion_controlplane.Pcb
module Router = Scion_dataplane.Router
module Packet = Scion_dataplane.Packet
module Pan = Scion_endhost.Pan
module Engine = Netsim.Engine
module Net = Netsim.Net
module Network = Sciera.Network
module Topology = Sciera.Topology

(* --- Spans ---------------------------------------------------------------- *)

let sp_topogen = Tracer.declare ~keep:true ~phase:Setup "topogen.generate"
let sp_create = Tracer.declare ~keep:true ~phase:Setup "core.network.create"
let sp_set_day = Tracer.declare ~keep:true ~phase:Loop "core.network.set_day"
let sp_paths = Tracer.declare ~phase:Loop "core.network.paths"
let sp_verify_cold = Tracer.declare ~keep:true ~phase:Post "controlplane.pcb.verify_cold"
let sp_verify_warm = Tracer.declare ~keep:true ~phase:Post "controlplane.pcb.verify_warm"
let sp_make = Tracer.declare ~phase:Loop "dataplane.packet.make"
let sp_view_of = Tracer.declare ~phase:Loop "dataplane.packet.view_of_packet"
let sp_walk = Tracer.declare ~phase:Loop "controlplane.mesh.walk"
let sp_process = Tracer.declare ~phase:Loop "dataplane.router.process_view"
let sp_view_to = Tracer.declare ~phase:Loop "dataplane.packet.view_to_packet"
let sp_walk_check = Tracer.declare ~phase:Loop "controlplane.mesh.walk_packet"
let sp_pick = Tracer.declare ~phase:Loop "endhost.pan.pick_flow_path"
let sp_headroom = Tracer.declare ~phase:Loop "core.network.path_headroom_bps"
let sp_offer = Tracer.declare ~phase:Loop "traffic.flow.offer"
let sp_transmit = Tracer.declare ~phase:Loop "netsim.net.transmit"
let sp_engine = Tracer.declare ~phase:Loop "netsim.engine.run"
let sp_probe = Tracer.declare ~phase:Loop "core.multiping.probe_paths"
let sp_scion_rtt = Tracer.declare ~phase:Loop "core.network.scion_rtt_sample"
let sp_ip_rtt = Tracer.declare ~phase:Loop "core.network.ip_rtt_sample"

(* --- Op accounting -------------------------------------------------------- *)

type ops = {
  hist : Hist.t;  (** Op latency, ns. *)
  mutable attempted : int;
  mutable failed : int;
  mutable first_error : string option;
  mutable digest : int;
  mutable digesting : bool;  (** Only pass 0 feeds the digest. *)
  mutable tracer : Tracer.t option;
}

let new_ops () =
  {
    hist = Hist.create ();
    attempted = 0;
    failed = 0;
    first_error = None;
    digest = 0;
    digesting = false;
    tracer = None;
  }

let span o id f = match o.tracer with None -> f () | Some t -> Tracer.span t id f

let fail o msg =
  o.failed <- o.failed + 1;
  if o.first_error = None then o.first_error <- Some msg

(* One timed op: [f] returns whether the op met the workload's check; a
   raise counts as a failure too. *)
let op o f =
  let id = o.attempted in
  o.attempted <- id + 1;
  (match o.tracer with Some t -> Tracer.set_op t id | None -> ());
  let t0 = Tracer.now_ns () in
  let error =
    match f () with
    | true -> None
    | false -> Some "failed its check"
    | exception e -> Some (Printexc.to_string e)
  in
  Hist.add o.hist (Tracer.now_ns () - t0);
  (match o.tracer with Some t -> Tracer.end_op t | None -> ());
  match error with None -> () | Some msg -> fail o (Printf.sprintf "op %d: %s" id msg)

(* FNV-style mixing of pass-0 outputs into the run digest. *)
let mix o x = if o.digesting then o.digest <- (o.digest lxor x) * 0x100000001b3 land max_int
let mix_float o f = mix o (Int64.to_int (Int64.bits_of_float f))
let mix_string o s = mix o (Hashtbl.hash s)

(* --- Public counters -------------------------------------------------------- *)

(* A snapshot of the public counters a workload touches, by name. Every
   counter is a running total except [flows_active_peak], a maximum. *)
type counts = (string * int) list

let diff (after : counts) (before : counts) : counts =
  List.map2
    (fun (k, a) (_, b) -> (k, if String.equal k "flows_active_peak" then a else a - b))
    after before

let count (c : counts) k = Option.value ~default:0 (List.assoc_opt k c)

let router_forwarded mesh =
  List.fold_left
    (fun acc ia -> acc + (Router.counters (Mesh.router mesh ia)).Router.forwarded)
    0 (Mesh.ases mesh)

let network_counts net : counts =
  let mesh = Network.mesh net in
  let memo_hits, memo_misses = Mesh.memo_stats mesh in
  [
    ("beacon_sends", Mesh.beacon_fanout mesh);
    ("rebeacons", Network.rebeacon_count net);
    ("sig_hits", Sigcache.hits Sigcache.global);
    ("sig_misses", Sigcache.misses Sigcache.global);
    ("memo_hits", memo_hits);
    ("memo_misses", memo_misses);
  ]

(* --- Workload interface ----------------------------------------------------- *)

type instance = {
  setup : unit -> unit;  (** Build the state from the seed; main.ml times it. *)
  pass : int -> unit;  (** One deterministic pass, numbered from 0. *)
  counts : unit -> counts;
  post : unit -> unit;  (** Traced runs only, after the loop. *)
}

type spec = {
  name : string;  (** As in BENCHMARK.json, which also says why each workload is there. *)
  setups : int;  (** Set-up repetitions behind the [setup_s] median. *)
  quick_passes : int;
  make : quick:bool -> seed:int64 -> ops -> instance;
}

let get what = function Some s -> s | None -> invalid_arg (what ^ ": pass before setup")

(* Every (source, destination) pair of distinct ASes. *)
let pairs srcs dsts =
  List.concat_map
    (fun a -> List.filter_map (fun b -> if Ia.equal a b then None else Some (a, b)) dsts)
    srcs

(* Generated meshes come from one fixed topogen seed (the scaling
   figure's), as the Figure-1 mesh is fixed for the other workloads: the
   run seed drives the draws on the mesh, so runs with different seeds
   measure the same mesh and their spread is run-to-run noise, not
   topology-to-topology variation. *)
let topology_seed = 0x5CA1_AB1EL

(* The scaling figure's beaconing profile for generated meshes. *)
let topogen_network ~seed ~n_ases ~verify_pcbs o =
  let gen =
    span o sp_topogen (fun () -> Topogen.generate ~seed:topology_seed (Topogen.default ~n_ases))
  in
  span o sp_create (fun () ->
      Network.create ~seed ~topology:(Topology.of_topogen gen) ~per_origin:2 ~propagate_k:2
        ~fanout_cap:40
        ~rounds:(Topogen.max_depth gen + 2)
        ~verify_pcbs ())

let sciera_network ~seed o =
  span o sp_create (fun () -> Network.create ~seed ~per_origin:8 ~verify_pcbs:false ())

(* --- converge: re-convergence with signature verification ------------------- *)

type converge_state = { c_net : Network.t; c_order : Ia.t array; c_rng : Rng.t }

let converge ~quick ~seed o =
  let n_ases = if quick then 100 else 600 in
  let lookups = if quick then 200 else 2000 in
  let st = ref None in
  let setup () =
    Sigcache.clear Sigcache.global;
    let net = topogen_network ~seed ~n_ases ~verify_pcbs:true o in
    (* scion-lint: rng-stream bench.e2e.converge -- pair sampling is private to this workload *)
    let rng = Rng.of_label seed "bench.e2e.converge" in
    st := Some { c_net = net; c_order = Array.of_list (Mesh.ases (Network.mesh net)); c_rng = rng }
  in
  let pass i =
    let s = get "converge" !st in
    let n = Array.length s.c_order in
    let mesh = Network.mesh s.c_net in
    let rejected = Mesh.verification_failures mesh in
    span o sp_set_day (fun () -> Network.set_day s.c_net (float_of_int (i + 1)));
    if Mesh.verification_failures mesh > rejected then
      fail o "converge: an honest beacon failed verification";
    for _ = 1 to lookups do
      let a = Rng.int s.c_rng n in
      let b = (a + 1 + Rng.int s.c_rng (n - 1)) mod n in
      op o (fun () ->
          match
            span o sp_paths (fun () -> Network.paths s.c_net ~src:s.c_order.(a) ~dst:s.c_order.(b))
          with
          | [] -> false
          | first :: _ as ps ->
              mix o a;
              mix o b;
              mix o (List.length ps);
              mix_string o first.Combinator.fingerprint;
              true)
    done;
    mix o (Mesh.beacon_fanout mesh)
  in
  (* Pcb.verify over every registered segment, first against a fresh
     cache and then against the now-warm one: cold minus warm is the
     Schnorr share of a re-convergence. *)
  let post () =
    let s = get "converge" !st in
    let mesh = Network.mesh s.c_net in
    let segments =
      List.concat_map
        (fun ia -> Mesh.up_segments mesh ia @ Mesh.core_segments_at mesh ia)
        (Mesh.ases mesh)
    in
    let now = Network.now_unix s.c_net in
    let cache = Sigcache.create () in
    let verify_all id =
      List.iter
        (fun seg ->
          match span o id (fun () -> Pcb.verify seg ~cache ~lookup:(Mesh.cert_material mesh) ~now) with
          | Ok () -> ()
          | Error e -> fail o ("segment verification: " ^ Pcb.check_error_to_string e))
        segments
    in
    verify_all sp_verify_cold;
    verify_all sp_verify_warm
  in
  { setup; pass; counts = (fun () -> network_counts (get "converge" !st).c_net); post }

(* --- forward: warm lookups and packet walks through the border routers ------ *)

type forward_state = {
  f_net : Network.t;
  f_pairs : (Ia.t * Ia.t) array;
  f_paths : Combinator.fullpath array array;  (** Per pair, as the warm lookup returns them. *)
  mutable f_check_forwards : int;  (** Router forwards made by the check walks. *)
  mutable f_packets : int;
}

let big_payload = String.make 1200 'x'
let host_src = Packet.Ipv4 (Scion_addr.Ipv4.of_string "10.0.0.1")
let host_dst = Packet.Ipv4 (Scion_addr.Ipv4.of_string "10.0.0.2")

let make_packet ~payload (p : Combinator.fullpath) =
  Packet.make ~proto:Packet.Udp ~src:(p.Combinator.src, host_src) ~dst:(p.Combinator.dst, host_dst)
    ~path:(Packet.Standard (Combinator.fresh_raw p))
    payload

(* [Mesh.walk] replayed hop by hop through the public calls it is made
   of, so each one can carry its own span. The walk span's self time is
   what [Mesh.walk_packet] does around the router at each hop (router
   lookup, egress-neighbour resolution) plus its children's tracing
   bookkeeping. *)
let replay_walk o mesh ~now ~payload (p : Combinator.fullpath) =
  span o sp_walk (fun () ->
      let pkt = span o sp_make (fun () -> make_packet ~payload p) in
      let v = span o sp_view_of (fun () -> Packet.View.of_packet pkt) in
      let max_steps = 3 * Combinator.num_hops p in
      let rec step at ingress hops =
        if hops > max_steps then
          Mesh.Walk_dropped { at; reason = Router.Path_malformed "forwarding loop suspected" }
        else begin
          let r = Mesh.router mesh at in
          let verdict = span o sp_process (fun () -> Router.process_view r ~now ~ingress v) in
          if verdict = 0 then
            Mesh.Walk_delivered
              { dst = at; hops; packet = span o sp_view_to (fun () -> Packet.View.to_packet v) }
          else if verdict < 0 then Mesh.Walk_dropped { at; reason = Router.last_drop r }
          else
            match Router.interface r verdict with
            | None -> Mesh.Walk_dropped { at; reason = Router.Unknown_interface verdict }
            | Some _ when not (Router.interface_up r verdict) ->
                Mesh.Walk_dropped { at; reason = Router.Interface_down verdict }
            | Some nb -> step nb.Router.remote_ia nb.Router.remote_ifid (hops + 1)
        end
      in
      step p.Combinator.src 0 0)

let same_walk a b =
  match (a, b) with
  | Mesh.Walk_delivered x, Mesh.Walk_delivered y ->
      Ia.equal x.dst y.dst && x.hops = y.hops
      && String.length x.packet.Packet.payload = String.length y.packet.Packet.payload
  | Mesh.Walk_dropped x, Mesh.Walk_dropped y -> Ia.equal x.at y.at
  | Mesh.Walk_delivered _, Mesh.Walk_dropped _ | Mesh.Walk_dropped _, Mesh.Walk_delivered _ ->
      false

let forward ~quick:_ ~seed o =
  let st = ref None in
  let setup () =
    Sigcache.clear Sigcache.global;
    let net = sciera_network ~seed o in
    let ases = Mesh.ases (Network.mesh net) in
    let pairs = Array.of_list (pairs ases ases) in
    (* scion-lint: rng-stream bench.e2e.forward -- the pair order is private to this workload *)
    Rng.shuffle (Rng.of_label seed "bench.e2e.forward") pairs;
    let paths = Array.map (fun (src, dst) -> Array.of_list (Network.paths net ~src ~dst)) pairs in
    st := Some { f_net = net; f_pairs = pairs; f_paths = paths; f_check_forwards = 0; f_packets = 0 }
  in
  let pass r =
    let s = get "forward" !st in
    let mesh = Network.mesh s.f_net in
    let now = Network.now_unix s.f_net in
    Array.iteri
      (fun k (src, dst) ->
        op o (fun () ->
            match span o sp_paths (fun () -> Network.paths s.f_net ~src ~dst) with
            | [] -> false
            | _ :: _ ->
                let ps = s.f_paths.(k) in
                (* Each path carries both payload sizes on consecutive
                   passes, so the work per pass does not depend on where
                   the seed's shuffle put the pair. *)
                let p = ps.(r / 2 mod Array.length ps) in
                let payload = if (r + k) land 1 = 0 then "" else big_payload in
                s.f_packets <- s.f_packets + 1;
                let result =
                  match o.tracer with
                  | None -> Mesh.walk mesh ~now ~payload p
                  | Some t ->
                      let replayed = replay_walk o mesh ~now ~payload p in
                      (* Differential check on the sampled ops: the replay
                         must agree with the library's own walk. The
                         check's router work is kept out of the counters. *)
                      if t.Tracer.sampled then begin
                        let reference =
                          span o sp_walk_check (fun () ->
                              let before = router_forwarded mesh in
                              let w =
                                Mesh.walk_packet mesh ~now ~from:src
                                  ~max_steps:(3 * Combinator.num_hops p)
                                  (make_packet ~payload p)
                              in
                              s.f_check_forwards <-
                                s.f_check_forwards + router_forwarded mesh - before;
                              w)
                        in
                        if same_walk replayed reference then replayed
                        else Mesh.Walk_dropped { at = src; reason = Router.Path_malformed "replay mismatch" }
                      end
                      else replayed
                in
                match result with
                | Mesh.Walk_delivered { dst = at; hops; packet } ->
                    mix o hops;
                    mix o (String.length packet.Packet.payload);
                    Ia.equal at dst && String.length packet.Packet.payload = String.length payload
                | Mesh.Walk_dropped _ ->
                    mix o (-1);
                    false))
      s.f_pairs
  in
  let counts () =
    let s = get "forward" !st in
    [
      ("router_forwarded", router_forwarded (Network.mesh s.f_net) - s.f_check_forwards);
      ("packets", s.f_packets);
    ]
  in
  { setup; pass; counts; post = ignore }

(* --- flows: max-min allocator under open-loop arrivals ---------------------- *)

let latency_policy = { Pan.default_policy with Pan.preferences = [ Pan.Latency ] }

(* Tier weight and region phase of a workload endpoint, as in the load
   figure. *)
let weight_of_tier = function Topology.Tier1 -> 3.0 | Topology.Tier2 -> 2.0 | Topology.Tier3 -> 1.0

let phase_of_region = function
  | Topology.Europe -> 0.0
  | Topology.North_america -> -6.0
  | Topology.Asia -> 7.0
  | Topology.South_america -> -4.0
  | Topology.Africa -> 1.0
  | Topology.Middle_east -> 3.0

type candidate = { c_src : Ia.t; c_paths : (Combinator.fullpath * Traffic.Flow.hop list) list }

type flows_state = {
  w_net : Network.t;
  w_engine : Engine.t;
  w_pops : Traffic.Workload.pop list;
  w_index : (string, int) Hashtbl.t;  (** Endpoint name -> index. *)
  w_pairs : candidate option array array;
  w_fg : Traffic.Flow.hop list;
  w_rng : Rng.t;  (** Split once per pass: each pass draws new arrivals. *)
  mutable w_started : int;
  mutable w_completed : int;
  mutable w_rejected : int;
  mutable w_peak : int;
  mutable w_fg_sent : int;
  mutable w_qdrops : int;
}

(* Load sized so that almost every arrival is admitted (a few hundred
   concurrent flows, no admission drops): every op then pays a max-min
   recompute, rather than half the ops being cheap rejections that put the
   median on the boundary between two modes. Flow sizes are capped at
   3 MB and passes are 30 simulated seconds, so a run averages over many
   arrival sequences and its cost does not hinge on a few elephants. *)
let flow_capacity_bps = 20e6
let flow_min_rate_bps = 100e3
let flow_max_bytes = 3e6

let flows ~quick ~seed o =
  let n_ases = if quick then 60 else 300 in
  let endpoints = if quick then 12 else 24 in
  let rate = if quick then 20.0 else 60.0 in
  let duration_s = if quick then 10.0 else 30.0 in
  let st = ref None in
  let setup () =
    Sigcache.clear Sigcache.global;
    let net = topogen_network ~seed ~n_ases ~verify_pcbs:false o in
    Network.arm_capacities net ~bps:flow_capacity_bps ~queue_pkts:32;
    let ases = (Network.topology net).Topology.spec_ases in
    let step = max 1 (List.length ases / endpoints) in
    let chosen =
      Array.of_list
        (List.filteri (fun i _ -> i < endpoints)
           (List.filteri (fun i _ -> i mod step = 0) ases))
    in
    let latency_of = Network.scion_rtt_base net in
    let pairs =
      Array.map
        (fun (a : Topology.as_info) ->
          Array.map
            (fun (b : Topology.as_info) ->
              let src = a.Topology.ia and dst = b.Topology.ia in
              if Ia.equal src dst then None
              else
                match
                  List.filteri
                    (fun i _ -> i < 4)
                    (Pan.sort_paths latency_policy ~latency_of (Network.paths net ~src ~dst))
                with
                | [] -> None
                | ranked ->
                    Some
                      { c_src = src; c_paths = List.map (fun p -> (p, Network.path_hops net ~src p)) ranked })
            chosen)
        chosen
    in
    (* Foreground probe pair: the first endpoint pair with a real path
       choice, over its latency-best path. *)
    let fg =
      match
        Array.find_map
          (Array.find_map (function
            | Some { c_paths = (_, hops) :: _ :: _; _ } -> Some hops
            | Some _ | None -> None))
          pairs
      with
      | Some hops -> hops
      | None -> invalid_arg "flows: no endpoint pair with two paths"
    in
    let index = Hashtbl.create 32 in
    Array.iteri (fun i (a : Topology.as_info) -> Hashtbl.replace index (Ia.to_string a.Topology.ia) i) chosen;
    let s =
      {
        w_net = net;
        w_engine = Engine.create ();
        w_pops =
          Array.to_list
            (Array.map
               (fun (a : Topology.as_info) ->
                 {
                   Traffic.Workload.name = Ia.to_string a.Topology.ia;
                   weight = weight_of_tier a.Topology.tier;
                   phase_h = phase_of_region a.Topology.region;
                 })
               chosen);
        w_index = index;
        w_pairs = pairs;
        w_fg = fg;
        (* scion-lint: rng-stream bench.e2e.flows -- arrivals are private to this workload *)
        w_rng = Rng.of_label seed "bench.e2e.flows";
        w_started = 0;
        w_completed = 0;
        w_rejected = 0;
        w_peak = 0;
        w_fg_sent = 0;
        w_qdrops = 0;
      }
    in
    (* All packet-level traffic is the foreground prober, so every full
       FIFO on the fabric is a foreground drop. *)
    Net.add_monitor (Network.scion_fabric net) (function
      | Net.Drop { cause = Net.Queue_full; _ } -> s.w_qdrops <- s.w_qdrops + 1
      | Net.Tx _ | Net.Rx _ | Net.Drop _ -> ());
    st := Some s
  in
  let pass _ =
    let s = get "flows" !st in
    let engine = s.w_engine and net = s.w_net in
    let fabric = Network.scion_fabric net in
    let latency_of = Network.scion_rtt_base net in
    let flows =
      Traffic.Flow.create ~min_rate_bps:flow_min_rate_bps
        ~on_complete:(fun ~fct_s ~size_bytes:_ -> mix_float o fct_s)
        ~engine fabric
    in
    let index (p : Traffic.Workload.pop) = Hashtbl.find_opt s.w_index p.Traffic.Workload.name in
    let sink ~now:_ ~src ~dst ~size_bytes =
      op o (fun () ->
          match (index src, index dst) with
          | Some i, Some j -> (
              match s.w_pairs.(i).(j) with
              | None -> false
              | Some c -> (
                  let chosen =
                    span o sp_pick (fun () ->
                        Pan.pick_flow_path ~policy:latency_policy ~latency_of
                          ~headroom:(fun p ->
                            span o sp_headroom (fun () ->
                                Network.path_headroom_bps net ~src:c.c_src p))
                          (List.map fst c.c_paths))
                  in
                  match chosen with
                  | None -> false
                  | Some p -> (
                      match List.find_opt (fun (q, _) -> q == p) c.c_paths with
                      | None -> false
                      | Some (_, hops) ->
                          (match span o sp_offer (fun () -> Traffic.Flow.offer flows ~hops ~size_bytes) with
                          | `Started _ -> mix o 1
                          | `Rejected -> mix o 0);
                          s.w_peak <- max s.w_peak (Traffic.Flow.active_count flows);
                          true)))
          | _ -> false)
    in
    (* A fresh arrival sequence per pass, so a run averages over many
       draws of the heavy-tailed sizes instead of repeating one. *)
    let rng = Rng.split s.w_rng in
    let config =
      Traffic.Workload.make_config ~base_rate_per_s:rate ~pareto_xm_bytes:200_000.0 ~max_flow_bytes:flow_max_bytes
        ~day_s:120.0 ()
    in
    let wl =
      Traffic.Workload.attach ~engine ~rng ~config ~pops:s.w_pops ~duration_s ~sink ()
    in
    (* Foreground: a 4 x 1500 B burst every 0.1 s over the probe path. *)
    let start = Engine.now engine in
    for k = 1 to int_of_float (duration_s /. 0.1) do
      Engine.schedule_at engine ~time:(start +. (float_of_int k *. 0.1)) (fun () ->
          let rec walk = function
            | [] -> ()
            | (h : Traffic.Flow.hop) :: rest ->
                span o sp_transmit (fun () ->
                    Net.transmit fabric engine h.Traffic.Flow.link ~from:h.Traffic.Flow.from
                      ~size_bytes:1500 ~on_arrival:(fun () -> walk rest))
          in
          for _ = 1 to 4 do
            s.w_fg_sent <- s.w_fg_sent + 1;
            walk s.w_fg
          done)
    done;
    span o sp_engine (fun () -> Engine.run engine);
    let fs = Traffic.Flow.stats flows in
    s.w_started <- s.w_started + fs.Traffic.Flow.started;
    s.w_completed <- s.w_completed + fs.Traffic.Flow.completed;
    s.w_rejected <- s.w_rejected + fs.Traffic.Flow.rejected;
    mix o (Traffic.Workload.arrivals wl);
    mix o fs.Traffic.Flow.completed;
    mix o fs.Traffic.Flow.rejected;
    mix_float o fs.Traffic.Flow.delivered_bytes;
    mix o s.w_qdrops;
    let offered = fs.Traffic.Flow.offered_bytes in
    let accounted = fs.Traffic.Flow.delivered_bytes +. fs.Traffic.Flow.rejected_bytes in
    if Float.abs (offered -. accounted) > 1e-6 *. Float.max 1.0 offered then
      fail o "flows: offered bytes != delivered + rejected after the drain";
    if fs.Traffic.Flow.completed <> fs.Traffic.Flow.started then
      fail o "flows: completed != started after the drain"
  in
  let counts () =
    let s = get "flows" !st in
    [
      ("engine_events", Engine.events_processed s.w_engine);
      ("flows_started", s.w_started);
      ("flows_completed", s.w_completed);
      ("flows_rejected", s.w_rejected);
      ("flows_active_peak", s.w_peak);
      ("fg_sent", s.w_fg_sent);
      ("fg_queue_drops", s.w_qdrops);
    ]
  in
  { setup; pass; counts; post = ignore }

(* --- multiping: the Figure 5-7 campaign ------------------------------------ *)

type multiping_state = {
  m_net : Network.t;
  m_pairs : (Ia.t * Ia.t) array;
  m_cache : Combinator.fullpath list option array;  (** Probe per pair, this epoch. *)
  mutable m_epoch : int;
}

let interval_s = 600.0
let window_intervals = 8 * 144 (* the first 8 days of the incident window *)

let multiping ~quick:_ ~seed o =
  let st = ref None in
  let setup () =
    Sigcache.clear Sigcache.global;
    let net = sciera_network ~seed o in
    let pairs =
      pairs Topology.measurement_ases
        (List.map (fun (a : Topology.as_info) -> a.Topology.ia) Topology.ases)
    in
    st :=
      Some
        {
          m_net = net;
          m_pairs = Array.of_list pairs;
          m_cache = Array.make (List.length pairs) None;
          m_epoch = -1;
        }
  in
  let valid = function
    | `Lost -> true
    | `Rtt ms ->
        mix_float o ms;
        Float.is_finite ms && ms >= 0.0
  in
  let pass i =
    let s = get "multiping" !st in
    let net = s.m_net in
    let day = float_of_int (i mod window_intervals) *. interval_s /. 86400.0 in
    span o sp_set_day (fun () -> Network.set_day net day);
    (* Probes are cached per convergence epoch, as Multiping.run does. *)
    if Network.rebeacon_count net <> s.m_epoch then begin
      Array.fill s.m_cache 0 (Array.length s.m_cache) None;
      s.m_epoch <- Network.rebeacon_count net
    end;
    Array.iteri
      (fun k (src, dst) ->
        op o (fun () ->
            let paths =
              match s.m_cache.(k) with
              | Some ps -> ps
              | None ->
                  let ps = span o sp_probe (fun () -> Sciera.Multiping.probe_paths net ~src ~dst) in
                  s.m_cache.(k) <- Some ps;
                  ps
            in
            mix o (List.length paths);
            let ok = ref true in
            for _slot = 1 to 3 do
              List.iter
                (fun p ->
                  if not (valid (span o sp_scion_rtt (fun () -> Network.scion_rtt_sample net p)))
                  then ok := false)
                paths
            done;
            for _slot = 1 to 3 do
              if not (valid (span o sp_ip_rtt (fun () -> Network.ip_rtt_sample net ~src ~dst))) then
                ok := false
            done;
            !ok))
      s.m_pairs
  in
  {
    setup;
    pass;
    counts = (fun () -> network_counts (get "multiping" !st).m_net);
    post = ignore;
  }

(* --- Catalogue ---------------------------------------------------------------- *)

let all =
  [
    { name = "converge-topogen600"; setups = 3; quick_passes = 1; make = converge };
    { name = "forward-sciera29"; setups = 5; quick_passes = 2; make = forward };
    { name = "flows-topogen300"; setups = 3; quick_passes = 1; make = flows };
    { name = "multiping-sciera29"; setups = 5; quick_passes = 6; make = multiping };
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) all
