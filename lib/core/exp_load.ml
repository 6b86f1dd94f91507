(* The load figure: goodput, flow completion time and queue drops vs
   offered load, SCION multipath-capable endpoints vs a single-path-IP
   baseline, at two scales (the 29-AS Figure-1 mesh and a topogen mesh).

   Hybrid fidelity: the offered load itself is fluid ([Traffic.Flow] —
   max-min fair shares over capacity-armed fabric links), while a
   foreground application is simulated packet by packet over the same
   links ([Net.transmit]) and experiences the congestion the fluid
   background creates — queueing delay and bounded-FIFO tail drops.

   Both arms carry the byte-identical arrival sequence (the workload
   stream is re-derived from the seed for every cell): the only
   difference is flow placement. The multipath arm places each flow on
   the candidate path with the most bottleneck headroom
   ([Pan.pick_flow_path]); the single-path arm always uses the statically
   best path, the way a BGP-routed IP endpoint would. *)

module Ia = Scion_addr.Ia
module Rng = Scion_util.Rng
module Stats = Scion_util.Stats
module Table = Scion_util.Table
module Combinator = Scion_controlplane.Combinator
module Pan = Scion_endhost.Pan
module Engine = Netsim.Engine
module Net = Netsim.Net

type arm = Multipath | Singlepath

let arm_name = function Multipath -> "scion-mp" | Singlepath -> "ip-sp"

type cell = {
  c_scale : string;
  c_arm : arm;
  c_load : float;  (** Offered-load multiplier of the sweep. *)
  c_offered_mbps : float;
  c_goodput_mbps : float;
  c_mean_fct_s : float;
  c_p99_fct_s : float;
  c_reject_pct : float;  (** Flows denied admission (fluid tail drop). *)
  c_fg_drop_pct : float;  (** Foreground packet echoes lost to full FIFOs. *)
  c_fg_delay_ms : float;  (** Mean foreground one-way delivery delay under the load. *)
  c_arrivals : int;
  c_completed : int;
}

type result = {
  loads : float list;
  duration_s : float;
  cells : cell list;
  mp_goodput_gain : float;  (** mp/sp goodput at the top load, 29-AS mesh. *)
  mp_p99_fct_ratio : float;  (** sp/mp p99 FCT at the top load, 29-AS mesh. *)
}

(* --- Model constants --------------------------------------------------- *)

(* Capacity slice per fabric link direction. Deliberately far below the
   10 Gbps circuit rate: the experiment models the contended share left
   for bulk R&E transfers, so the sweep reaches saturation with evidence-
   sized workloads. *)
let cap_bps = 1.5e6
let queue_pkts = 32
let min_rate_bps = 500.0e3 (* admission floor: the fluid analogue of a tail drop *)
let base_rate_per_s = 6.0 (* aggregate arrivals/s at load multiplier 1 *)
let day_s = 120.0 (* compressed diurnal day: a cell sees hours of curve *)
let candidates_n = 4 (* paths a multipath endpoint balances over *)
let fg_period_s = 0.5 (* foreground echo cadence *)
let fg_bytes = 1500 (* full-size foreground packets *)
let fg_burst = 4 (* packets per echo: enough to exercise the FIFO *)

let latency_policy = { Pan.default_policy with Pan.preferences = [ Pan.Latency ] }

(* Diurnal phase offsets by region, in curve points ("hours"): the PoPs
   peak at different simulated times, like the paper's federated NRENs. *)
let phase_of_region = function
  | Topology.Europe -> 0.0
  | Topology.North_america -> -6.0
  | Topology.Asia -> 7.0
  | Topology.South_america -> -4.0
  | Topology.Africa -> 1.0
  | Topology.Middle_east -> 3.0

let weight_of_tier = function
  | Topology.Tier1 -> 3.0
  | Topology.Tier2 -> 2.0
  | Topology.Tier3 -> 1.0

let pop_of_as (a : Topology.as_info) =
  {
    Traffic.Workload.name = Ia.to_string a.Topology.ia;
    weight = weight_of_tier a.Topology.tier;
    phase_h = phase_of_region a.Topology.region;
  }

(* --- Per-scale context ------------------------------------------------- *)

type pair_paths = {
  ranked : Combinator.fullpath list;  (** Policy order, at most [candidates_n]. *)
  hops_of : (string, Traffic.Flow.hop list) Hashtbl.t;  (** by fingerprint *)
}

type scale_ctx = {
  s_name : string;
  s_net : Network.t;
  s_engine : Engine.t;
  s_pops : Traffic.Workload.pop list;
  s_ia_of : (string, Ia.t) Hashtbl.t;
  s_pairs : (string, pair_paths) Hashtbl.t;  (** "src>dst" -> candidates *)
  s_fg_src : Ia.t;
  s_fg_hops : Traffic.Flow.hop list;  (** static best path of the fg pair *)
  s_fg_base_ms : float;
  mutable s_fg_qdrops : int;  (** monitor-fed, reset per cell *)
}

let take n xs = List.filteri (fun i _ -> i < n) xs

(* Pick up to [n] workload endpoints from a generated mesh, evenly spaced
   through the AS list so cores and leaves both serve load. *)
let spaced_ases n (ases : Topology.as_info list) =
  let total = List.length ases in
  let step = Stdlib.max 1 (total / n) in
  take n (List.filteri (fun i _ -> i mod step = 0) ases)

let make_ctx ~seed ~telemetry ~name ~topogen_n =
  let net =
    match topogen_n with
    | None -> Network.create ~seed ~per_origin:4 ~verify_pcbs:false ?telemetry ()
    | Some n_ases ->
        (* Telemetry-less at topogen scale: per-AS labelled stack series
           would explode the snapshot (same reason as the scaling figure). *)
        let gen = Topogen.generate ~seed (Topogen.default ~n_ases) in
        Network.create ~seed ~topology:(Topology.of_topogen gen) ~per_origin:2 ~propagate_k:2
          ~fanout_cap:40
          ~rounds:(Topogen.max_depth gen + 2)
          ~verify_pcbs:false ()
  in
  Network.arm_capacities net ~bps:cap_bps ~queue_pkts;
  let as_infos =
    match topogen_n with
    | None ->
        List.filter
          (fun (a : Topology.as_info) -> a.Topology.measurement_point)
          (Network.topology net).Topology.spec_ases
    | Some _ -> spaced_ases 12 (Network.topology net).Topology.spec_ases
  in
  let ia_of = Hashtbl.create 16 in
  List.iter
    (fun (a : Topology.as_info) ->
      Hashtbl.replace ia_of (Ia.to_string a.Topology.ia) a.Topology.ia)
    as_infos;
  let latency_of = Network.scion_rtt_base net in
  (* Candidate set per ordered PoP pair: policy-ranked, with the directed
     hop sequence of each candidate precomputed. Pairs without a path are
     dropped from the workload's PoP matrix implicitly (no entry). *)
  let pairs = Hashtbl.create 64 in
  List.iter
    (fun (a : Topology.as_info) ->
      List.iter
        (fun (b : Topology.as_info) ->
          let src = a.Topology.ia and dst = b.Topology.ia in
          if not (Ia.equal src dst) then begin
            match
              take candidates_n
                (Pan.sort_paths latency_policy ~latency_of (Network.paths net ~src ~dst))
            with
            | [] -> ()
            | ranked ->
                let hops_of = Hashtbl.create 4 in
                List.iter
                  (fun (p : Combinator.fullpath) ->
                    Hashtbl.replace hops_of p.Combinator.fingerprint
                      (Network.path_hops net ~src p))
                  ranked;
                Hashtbl.replace pairs
                  (Ia.to_string src ^ ">" ^ Ia.to_string dst)
                  { ranked; hops_of }
          end)
        as_infos)
    as_infos;
  (* Foreground pair: the first endpoint pair (in PoP order) with a real
     path choice, probed over its statically best path in both arms. *)
  let fg_src, fg_pp =
    let hit =
      List.find_map
        (fun (a : Topology.as_info) ->
          List.find_map
            (fun (b : Topology.as_info) ->
              match
                Hashtbl.find_opt pairs
                  (Ia.to_string a.Topology.ia ^ ">" ^ Ia.to_string b.Topology.ia)
              with
              | Some pp when List.length pp.ranked >= 2 -> Some (a.Topology.ia, pp)
              | Some _ | None -> None)
            as_infos)
        as_infos
    in
    match hit with
    | Some h -> h
    | None -> invalid_arg "Exp_load: no endpoint pair with >= 2 candidate paths"
  in
  let fg_best =
    match fg_pp.ranked with
    | p :: _ -> p
    | [] -> invalid_arg "Exp_load: empty foreground candidate set"
  in
  let fg_hops =
    match Hashtbl.find_opt fg_pp.hops_of fg_best.Combinator.fingerprint with
    | Some h -> h
    | None -> invalid_arg "Exp_load: foreground path has no hop record"
  in
  let ctx =
    {
      s_name = name;
      s_net = net;
      s_engine = Engine.create ();
      s_pops = List.map pop_of_as as_infos;
      s_ia_of = ia_of;
      s_pairs = pairs;
      s_fg_src = fg_src;
      s_fg_hops = fg_hops;
      s_fg_base_ms = latency_of fg_best;
      s_fg_qdrops = 0;
    }
  in
  (* All packet-level traffic during a cell is the foreground prober, so
     every Queue_full on the fabric is a foreground drop. *)
  Net.add_monitor (Network.scion_fabric net) (function
    | Net.Drop { cause = Net.Queue_full; _ } -> ctx.s_fg_qdrops <- ctx.s_fg_qdrops + 1
    | Net.Tx _ | Net.Rx _ | Net.Drop _ -> ());
  ctx

(* --- One cell: (scale, arm, load multiplier) --------------------------- *)

let run_cell ~seed ~metrics ~duration_s ctx arm load =
  let engine = ctx.s_engine and net = ctx.s_net in
  let fabric = Network.scion_fabric net in
  let latency_of = Network.scion_rtt_base net in
  ctx.s_fg_qdrops <- 0;
  let fcts = ref [] in
  let labels = [ ("scale", ctx.s_name); ("arm", arm_name arm) ] in
  let flows =
    Traffic.Flow.create ?metrics ~labels ~min_rate_bps
      ~on_complete:(fun ~fct_s ~size_bytes:_ -> fcts := fct_s :: !fcts)
      ~engine fabric
  in
  let place src_name dst_name =
    match Hashtbl.find_opt ctx.s_pairs (src_name ^ ">" ^ dst_name) with
    | None -> None
    | Some pp -> (
        let chosen =
          match arm with
          | Singlepath -> ( match pp.ranked with p :: _ -> Some p | [] -> None)
          | Multipath -> (
              match Hashtbl.find_opt ctx.s_ia_of src_name with
              | None -> None
              | Some src ->
                  Pan.pick_flow_path ~policy:latency_policy ~latency_of
                    ~headroom:(fun p -> Network.path_headroom_bps net ~src p)
                    pp.ranked)
        in
        match chosen with
        | None -> None
        | Some p -> Hashtbl.find_opt pp.hops_of p.Combinator.fingerprint)
  in
  (* The workload stream is re-derived per cell: both arms replay the
     byte-identical arrival sequence for a given load point. *)
  let rng = Rng.of_label seed "traffic" in
  let config =
    Traffic.Workload.make_config
      ~base_rate_per_s:(base_rate_per_s *. load)
      ~pareto_xm_bytes:200_000.0 ~day_s ()
  in
  let unroutable = ref 0 in
  let wl =
    Traffic.Workload.attach ~engine ~rng ~config ~pops:ctx.s_pops ~duration_s
      ~sink:(fun ~now:_ ~src ~dst ~size_bytes ->
        match place src.Traffic.Workload.name dst.Traffic.Workload.name with
        | None -> incr unroutable
        | Some hops -> (
            match Traffic.Flow.offer flows ~hops ~size_bytes with
            | `Started _ | `Rejected -> ()))
      ()
  in
  (* Foreground echoes: a packet-level walk over the static best path of
     the probe pair, chained hop by hop through the loaded fabric. *)
  let fg_attempts = ref 0 and fg_delivered = ref 0 and fg_delay_sum = ref 0.0 in
  let start0 = Engine.now engine in
  let n_echoes = int_of_float (duration_s /. fg_period_s) in
  for k = 1 to n_echoes do
    Engine.schedule_at engine
      ~time:(start0 +. (float_of_int k *. fg_period_s))
      (fun () ->
        let sent_at = Engine.now engine in
        let rec walk = function
          | [] ->
              incr fg_delivered;
              fg_delay_sum := !fg_delay_sum +. ((Engine.now engine -. sent_at) *. 1000.0)
          | (h : Traffic.Flow.hop) :: rest ->
              Net.transmit fabric engine h.Traffic.Flow.link ~from:h.Traffic.Flow.from
                ~size_bytes:fg_bytes ~on_arrival:(fun () -> walk rest)
        in
        (* A short back-to-back burst per echo: under saturation the
           serialisation of earlier packets backs the FIFO up, so the tail
           of the burst exercises Queue_full. *)
        for _ = 1 to fg_burst do
          incr fg_attempts;
          walk ctx.s_fg_hops
        done)
  done;
  (* Drain: arrivals stop at duration, flows run to completion. *)
  Engine.run engine;
  let s = Traffic.Flow.stats flows in
  let arrivals = Traffic.Workload.arrivals wl in
  let fct = Array.of_list !fcts in
  let offered_routed = s.Traffic.Flow.offered_bytes in
  let mbps bytes = bytes *. 8.0 /. 1e6 /. duration_s in
  {
    c_scale = ctx.s_name;
    c_arm = arm;
    c_load = load;
    c_offered_mbps = mbps offered_routed;
    c_goodput_mbps = mbps s.Traffic.Flow.delivered_bytes;
    c_mean_fct_s = (if Array.length fct = 0 then 0.0 else Stats.mean fct);
    c_p99_fct_s = (if Array.length fct = 0 then 0.0 else Stats.percentile fct 99.0);
    c_reject_pct =
      (if s.Traffic.Flow.started + s.Traffic.Flow.rejected = 0 then 0.0
       else
         100.0
         *. float_of_int s.Traffic.Flow.rejected
         /. float_of_int (s.Traffic.Flow.started + s.Traffic.Flow.rejected));
    c_fg_drop_pct =
      (if !fg_attempts = 0 then 0.0
       else 100.0 *. float_of_int (!fg_attempts - !fg_delivered) /. float_of_int !fg_attempts);
    c_fg_delay_ms = (if !fg_delivered = 0 then 0.0 else !fg_delay_sum /. float_of_int !fg_delivered);
    c_arrivals = arrivals;
    c_completed = s.Traffic.Flow.completed;
  }

(* --- The experiment ---------------------------------------------------- *)

let find_cell cells ~scale ~arm ~load =
  List.find_opt
    (fun c ->
      String.equal c.c_scale scale && c.c_arm = arm
      && Float.abs (c.c_load -. load) < 1e-9)
    cells

let seed = 0x10AD_CAFEL

let run ~loads ~duration_s ~topogen_ases ?telemetry () =
  (match loads with [] -> invalid_arg "Exp_load.run: empty load sweep" | _ :: _ -> ());
  List.iter
    (fun l ->
      if not (Float.is_finite l) || l <= 0.0 then
        invalid_arg (Printf.sprintf "Exp_load.run: load multipliers must be > 0 (got %g)" l))
    loads;
  if not (Float.is_finite duration_s) || duration_s <= 0.0 then
    invalid_arg (Printf.sprintf "Exp_load.run: duration_s must be > 0 (got %g)" duration_s);
  let metrics = Option.map Obs.registry telemetry in
  let scales =
    [
      ("sciera-29", None);
      (Printf.sprintf "topogen-%d" topogen_ases, Some topogen_ases);
    ]
  in
  let cells =
    List.concat_map
      (fun (name, topogen_n) ->
        let ctx = make_ctx ~seed ~telemetry ~name ~topogen_n in
        List.concat_map
          (fun arm -> List.map (fun load -> run_cell ~seed ~metrics ~duration_s ctx arm load) loads)
          [ Multipath; Singlepath ])
      scales
  in
  let top_load = List.fold_left Float.max 0.0 loads in
  let mp, sp =
    match
      ( find_cell cells ~scale:"sciera-29" ~arm:Multipath ~load:top_load,
        find_cell cells ~scale:"sciera-29" ~arm:Singlepath ~load:top_load )
    with
    | Some mp, Some sp -> (mp, sp)
    | _ -> invalid_arg "Exp_load.run: missing top-load cells"
  in
  let result =
    {
      loads;
      duration_s;
      cells;
      mp_goodput_gain = mp.c_goodput_mbps /. Float.max 1e-9 sp.c_goodput_mbps;
      mp_p99_fct_ratio = sp.c_p99_fct_s /. Float.max 1e-9 mp.c_p99_fct_s;
    }
  in
  (match telemetry with
  | None -> ()
  | Some o ->
      let module M = Telemetry.Metrics in
      let reg = Obs.registry o in
      let sum f = List.fold_left (fun acc c -> acc + f c) 0 cells in
      M.add (M.counter reg "exp.load.arrivals") (sum (fun c -> c.c_arrivals));
      M.add (M.counter reg "exp.load.completed") (sum (fun c -> c.c_completed));
      List.iter
        (fun arm ->
          let labels = [ ("arm", arm_name arm) ] in
          let g = M.summary reg ~labels "exp.load.goodput_mbps" in
          let f = M.summary reg ~labels "exp.load.p99_fct_s" in
          List.iter
            (fun c ->
              if c.c_arm = arm then begin
                M.record g c.c_goodput_mbps;
                M.record f c.c_p99_fct_s
              end)
            cells)
        [ Multipath; Singlepath ]);
  result

(* --- Rendering --------------------------------------------------------- *)

let print_load b r =
  Printf.bprintf b
    "== Load: goodput and FCT vs offered load, multipath vs single-path (%g s cells) ==\n"
    r.duration_s;
  Buffer.add_string b (Table.render
    ~header:
      [
        "scale"; "arm"; "load"; "offered Mbps"; "goodput Mbps"; "mean FCT s"; "p99 FCT s";
        "reject %"; "fg drop %"; "fg delay ms";
      ]
    ~rows:
      (List.map
         (fun c ->
           [
             c.c_scale;
             arm_name c.c_arm;
             Table.fmt_float c.c_load;
             Table.fmt_float c.c_offered_mbps;
             Table.fmt_float c.c_goodput_mbps;
             Table.fmt_float c.c_mean_fct_s;
             Table.fmt_float c.c_p99_fct_s;
             Table.fmt_float c.c_reject_pct;
             Table.fmt_float c.c_fg_drop_pct;
             Table.fmt_float c.c_fg_delay_ms;
           ])
         r.cells));
  (* The p99 direction is load-dependent: multipath admits more flows, so
     its completed population can include slower transfers the single-path
     floor would have rejected — word the tail honestly either way. *)
  Printf.bprintf b
    "at load %s on the 29-AS mesh, multipath placement carries %sx the single-path goodput %s\n\n"
    (Table.fmt_float (List.fold_left Float.max 0.0 r.loads))
    (Table.fmt_float r.mp_goodput_gain)
    (if r.mp_p99_fct_ratio >= 1.0 then
       Printf.sprintf "with %sx lower p99 FCT" (Table.fmt_float r.mp_p99_fct_ratio)
     else
       Printf.sprintf "at %sx the single-path p99 FCT (admission survivorship)"
         (Table.fmt_float (1.0 /. Float.max 1e-9 r.mp_p99_fct_ratio)))
