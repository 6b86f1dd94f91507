module Ia = Scion_addr.Ia
module Mesh = Scion_controlplane.Mesh
module Rng = Scion_util.Rng
module Net = Netsim.Net
module Engine = Netsim.Engine
module Table = Scion_util.Table

(* The scaling sweep: instantiate synthetic [Topogen] meshes of growing AS
   count next to the 29-AS Figure-1 baseline, and measure how the control
   plane and data plane hold up — delivery, path diversity, stretch,
   simulation work and per-AS control-plane state. Everything here is
   deterministic in the seed; wall-clock is measured (and bounded) by the
   bench driver, never inside the figure. *)

type row = {
  label : string;
  n_target : int;  (** Requested AS count (29 for the baseline). *)
  ases : int;
  links : int;
  cores : int;
  depth : int;  (** Deepest leaf (0 for the hand-built baseline's shape). *)
  reachable_pct : float;  (** Pairs with at least one control-plane path. *)
  delivered_pct : float;  (** Packet-level echoes delivered over the best path. *)
  mean_paths : float;  (** Mean path count over reachable pairs. *)
  mean_stretch : float;  (** Best-path latency over fabric shortest path. *)
  events : int;  (** Engine events processed by the packet sweep. *)
  peak_state_bytes : int;  (** Largest modelled per-AS control-plane state. *)
  beacon_sends : int;  (** Beacon extensions propagated (signatures paid). *)
  fanout_capped : int;  (** Propagation sends dropped by the fan-out cap. *)
  memo_hits : int;
  memo_misses : int;
}

type result = { rows : row list }

(* Beaconing profile shared by every row so the sizes are comparable:
   small stores and a per-round fan-out budget keep the signature count —
   the dominant cost at N=1000 — linear in N. *)
let per_origin = 2
let propagate_k = 2
let fanout_cap = 40
let pairs_per_size = 120

let measure ~label ~n_target ~depth ~rng net =
  let mesh = Network.mesh net in
  let order = Array.of_list (Mesh.ases mesh) in
  let n = Array.length order in
  let fabric = Network.scion_fabric net in
  let node_of ia =
    match Net.node_of_name fabric (Ia.to_string ia) with
    | Some node -> node
    | None -> invalid_arg (Printf.sprintf "Exp_scaling: %s not in fabric" (Ia.to_string ia))
  in
  let engine = Engine.create () in
  let reachable = ref 0 in
  let delivered = ref 0 in
  let path_counts = ref 0 in
  let stretches = ref [] in
  for _ = 1 to pairs_per_size do
    let i = Rng.int rng n in
    let j = (i + 1 + Rng.int rng (n - 1)) mod n in
    let src = order.(i) and dst = order.(j) in
    let ps = Network.paths net ~src ~dst in
    match ps with
    | [] -> ()
    | first :: rest ->
        incr reachable;
        path_counts := !path_counts + List.length ps;
        let best =
          List.fold_left
            (fun b p ->
              if Network.scion_rtt_base net p < Network.scion_rtt_base net b then p else b)
            first rest
        in
        let links = Network.path_links net best in
        (match Net.dijkstra fabric ~src:(node_of src) ~dst:(node_of dst) with
        | Some (shortest, _) when shortest > 0.0 ->
            let one_way = Net.path_base_latency fabric links in
            stretches := Float.max 1.0 (one_way /. shortest) :: !stretches
        | Some _ | None -> ());
        (* One packet-level echo over the best path: serialisation,
           propagation, jitter and loss all on the engine. *)
        let rec hop at = function
          | [] -> incr delivered
          | l :: tail ->
              let a, b = Net.endpoints fabric l in
              let next = if a = at then b else a in
              Net.transmit fabric engine l ~from:at ~size_bytes:1200 ~on_arrival:(fun () ->
                  hop next tail)
        in
        hop (node_of src) links
  done;
  Engine.run engine;
  let peak_state =
    Array.fold_left (fun acc ia -> max acc (Mesh.state_bytes mesh ia)) 0 order
  in
  let cores = Array.fold_left (fun acc ia -> if Mesh.is_core mesh ia then acc + 1 else acc) 0 order in
  let memo_hits, memo_misses = Mesh.memo_stats mesh in
  let pct num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den in
  {
    label;
    n_target;
    ases = n;
    links = List.length (Mesh.links mesh);
    cores;
    depth;
    reachable_pct = pct !reachable pairs_per_size;
    delivered_pct = pct !delivered pairs_per_size;
    mean_paths =
      (if !reachable = 0 then 0.0 else float_of_int !path_counts /. float_of_int !reachable);
    mean_stretch =
      (match !stretches with
      | [] -> 0.0
      | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l));
    events = Engine.events_processed engine;
    peak_state_bytes = peak_state;
    beacon_sends = Mesh.beacon_fanout mesh;
    fanout_capped = Mesh.fanout_capped mesh;
    memo_hits;
    memo_misses;
  }

let seed = 0x5CA1_AB1EL
let sizes = [ 100; 300; 1000; 3000 ]

let run () =
  (* scion-lint: rng-stream scaling.pairs -- pair sampling is private to this experiment *)
  let rng = Rng.of_label seed "scaling.pairs" in
  let baseline =
    let net = Network.create ~seed ~per_origin ~propagate_k ~fanout_cap () in
    measure ~label:"sciera-29" ~n_target:29 ~depth:1 ~rng net
  in
  let scaled =
    List.map
      (fun n_ases ->
        let gen = Topogen.generate ~seed (Topogen.default ~n_ases) in
        let topology = Topology.of_topogen gen in
        let net =
          Network.create ~seed ~topology ~per_origin ~propagate_k ~fanout_cap
            ~rounds:(Topogen.max_depth gen + 2) ()
        in
        measure
          ~label:(Printf.sprintf "topogen-%d" n_ases)
          ~n_target:n_ases ~depth:(Topogen.max_depth gen) ~rng net)
      sizes
  in
  { rows = baseline :: scaled }

let print_scaling b r =
  Buffer.add_string b (Table.render
    ~header:
      [
        "topology"; "ASes"; "links"; "cores"; "depth"; "reach%"; "deliv%"; "paths"; "stretch";
        "events"; "peakB/AS"; "sends"; "capped"; "memo h/m";
      ]
    ~rows:
      (List.map
         (fun w ->
           [
             w.label;
             string_of_int w.ases;
             string_of_int w.links;
             string_of_int w.cores;
             string_of_int w.depth;
             Table.fmt_float w.reachable_pct;
             Table.fmt_float w.delivered_pct;
             Table.fmt_float w.mean_paths;
             Table.fmt_float w.mean_stretch;
             string_of_int w.events;
             string_of_int w.peak_state_bytes;
             string_of_int w.beacon_sends;
             string_of_int w.fanout_capped;
             Printf.sprintf "%d/%d" w.memo_hits w.memo_misses;
           ])
         r.rows));
  Printf.bprintf b "%d sampled pairs per topology; beaconing profile per_origin=%d k=%d fanout_cap=%d\n"
    pairs_per_size per_origin propagate_k fanout_cap
