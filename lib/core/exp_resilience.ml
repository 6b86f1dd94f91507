(* Figure 10c: impact of link failures on AS connectivity — multipath vs a
   single-path (BGP-like) alternative. Each of [runs] runs removes links one
   by one in random order and tracks the fraction of AS pairs still connected. *)

module Ia = Scion_addr.Ia
module Net = Netsim.Net
module Rng = Scion_util.Rng

type result = {
  fractions_removed : float array;  (** X axis: fraction of links removed. *)
  multipath_connectivity : float array;  (** Mean over runs. *)
  singlepath_connectivity : float array;
  runs : int;
}

(* Total lookup of an AS's graph node: every IA comes from Topology.ases,
   which also populated the table, so a miss is a topology bug. *)
let node_of nodes ia =
  match Hashtbl.find_opt nodes ia with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Exp_resilience: unknown AS %s" (Ia.to_string ia))

(* A fresh fabric graph from the topology (all links up, no incidents). *)
let build_fabric rng =
  let net = Net.create ~rng in
  let nodes = Hashtbl.create 64 in
  List.iter
    (fun (a : Topology.as_info) ->
      Hashtbl.replace nodes a.Topology.ia (Net.add_node net (Ia.to_string a.Topology.ia)))
    Topology.ases;
  List.iter
    (fun (l : Topology.link_info) ->
      ignore
        (Net.add_link net
           (node_of nodes l.Topology.a)
           (node_of nodes l.Topology.b)
           { Net.default_params with Net.latency_ms = l.Topology.latency_ms }))
    Topology.links;
  (net, nodes)

let seed = 0xF1C5EEDL
let runs = 100

let run ~telemetry =
  let rng = Rng.create seed in
  let probe = build_fabric (Rng.split rng) in
  let net0, nodes0 = probe in
  let ias = List.map (fun (a : Topology.as_info) -> a.Topology.ia) Topology.ases in
  let pairs =
    List.concat_map
      (fun a -> List.filter_map (fun b -> if Ia.compare a b < 0 then Some (a, b) else None) ias)
      ias
  in
  let nlinks = Net.num_links net0 in
  let steps = nlinks + 1 in
  let multi = Array.make steps 0.0 and single = Array.make steps 0.0 in
  (* The single-path baseline pins, per pair, the one route BGP would have
     chosen on the intact topology; the pair stays connected only while
     every link of that fixed route survives. *)
  let baseline_routes =
    List.map
      (fun (a, b) ->
        match
          Net.min_hop_route net0 ~src:(node_of nodes0 a) ~dst:(node_of nodes0 b)
        with
        | Some r -> r
        | None -> [])
      pairs
  in
  let npairs = float_of_int (List.length pairs) in
  for _run = 1 to runs do
    let order = Array.init nlinks Fun.id in
    Rng.shuffle rng order;
    (* Restore all links. *)
    for l = 0 to nlinks - 1 do
      Net.set_link_up net0 l true
    done;
    let removed = Hashtbl.create 64 in
    for step = 0 to nlinks do
      if step > 0 then begin
        let victim = order.(step - 1) in
        Net.set_link_up net0 victim false;
        Hashtbl.replace removed victim ()
      end;
      let connected_multi =
        List.fold_left
          (fun acc (a, b) ->
            if
              Net.connected net0 ~src:(node_of nodes0 a) ~dst:(node_of nodes0 b)
            then acc + 1
            else acc)
          0 pairs
      in
      let connected_single =
        List.fold_left
          (fun acc route ->
            if route <> [] && List.for_all (fun l -> not (Hashtbl.mem removed l)) route then acc + 1
            else acc)
          0 baseline_routes
      in
      multi.(step) <- multi.(step) +. (float_of_int connected_multi /. npairs);
      single.(step) <- single.(step) +. (float_of_int connected_single /. npairs)
    done
  done;
  let runs_f = float_of_int runs in
  let result =
    {
      fractions_removed = Array.init steps (fun i -> float_of_int i /. float_of_int nlinks);
      multipath_connectivity = Array.map (fun v -> v /. runs_f) multi;
      singlepath_connectivity = Array.map (fun v -> v /. runs_f) single;
      runs;
    }
  in
  (* This experiment owns its fabric rather than a full Network, so the
     stack-level instrumentation never sees it; publish the sweep itself. *)
  let module M = Telemetry.Metrics in
  let reg = Obs.registry telemetry in
  M.add (M.counter reg "exp.fig10c.links") nlinks;
  let m_conn = M.summary reg ~labels:[ ("mode", "multipath") ] "exp.fig10c.connectivity" in
  let s_conn = M.summary reg ~labels:[ ("mode", "singlepath") ] "exp.fig10c.connectivity" in
  Array.iter (M.record m_conn) result.multipath_connectivity;
  Array.iter (M.record s_conn) result.singlepath_connectivity;
  result


let connectivity_at r fraction =
  (* Interpolate at a given removed-links fraction. *)
  let n = Array.length r.fractions_removed in
  let rec find i = if i >= n - 1 || r.fractions_removed.(i) >= fraction then i else find (i + 1) in
  let i = find 0 in
  (r.multipath_connectivity.(i), r.singlepath_connectivity.(i))

let print_fig10c b r =
  Printf.bprintf b "== Figure 10c: impact of link failures on AS connectivity (%d runs) ==\n" r.runs;
  let n = Array.length r.fractions_removed in
  let rows =
    List.filter_map
      (fun i ->
        if i mod (max 1 (n / 12)) = 0 || i = n - 1 then
          Some
            [
              Scion_util.Table.fmt_pct r.fractions_removed.(i);
              Scion_util.Table.fmt_pct r.multipath_connectivity.(i);
              Scion_util.Table.fmt_pct r.singlepath_connectivity.(i);
            ]
        else None)
      (List.init n Fun.id)
  in
  Buffer.add_string b (Scion_util.Table.render
    ~header:[ "links removed"; "multipath"; "single path" ]
    ~rows);
  let m20, s20 = connectivity_at r 0.2 in
  Printf.bprintf b
    "at 20%% links removed: multipath %s vs single path %s connected (paper: ~90%% vs ~50%%)\n\n"
    (Scion_util.Table.fmt_pct m20) (Scion_util.Table.fmt_pct s20)
