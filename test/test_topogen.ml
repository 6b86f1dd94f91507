(* Property tests for the synthetic topology generator: connectivity and
   core reachability by construction, byte-identity in the (seed, params)
   pair, and the Topogen -> Topology.of_topogen -> Network.create path
   carrying a real multiping workload. Also pins the scale accessors the
   scaling figure reads: memo hit/miss counts and fan-out-cap drops. *)

module Ia = Scion_addr.Ia
module Mesh = Scion_controlplane.Mesh

let generate ~seed ~n =
  Topogen.generate ~seed:(Int64.of_int (seed + 1)) (Topogen.default ~n_ases:n)

(* (seed, n_ases) pairs spanning the evidence range. *)
let seed_and_size = QCheck.(pair (int_bound 1000) (int_range 40 240))

let qcheck_connected =
  QCheck.Test.make ~name:"generated topologies are connected" ~count:30 seed_and_size
    (fun (seed, n) ->
      let g = generate ~seed ~n in
      let idx = Hashtbl.create (2 * n) in
      List.iteri (fun i (a : Topogen.as_info) -> Hashtbl.replace idx a.Topogen.ia i)
        g.Topogen.ases;
      let node ia =
        match Hashtbl.find_opt idx ia with
        | Some i -> i
        | None -> QCheck.Test.fail_report "link endpoint outside the AS set"
      in
      let total = List.length g.Topogen.ases in
      let adj = Array.make total [] in
      List.iter
        (fun (l : Topogen.link_info) ->
          let a = node l.Topogen.a and b = node l.Topogen.b in
          adj.(a) <- b :: adj.(a);
          adj.(b) <- a :: adj.(b))
        g.Topogen.links;
      let seen = Array.make total false in
      let queue = Queue.create () in
      Queue.add 0 queue;
      seen.(0) <- true;
      let visited = ref 0 in
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        incr visited;
        List.iter
          (fun v ->
            if not seen.(v) then begin
              seen.(v) <- true;
              Queue.add v queue
            end)
          adj.(u)
      done;
      !visited = total)

let qcheck_core_reachable =
  QCheck.Test.make ~name:"every AS reaches a core over parent links" ~count:30 seed_and_size
    (fun (seed, n) ->
      let g = generate ~seed ~n in
      (* Parent-link hops to the nearest core, relaxed to a fixpoint: a
         parent always appears as [a] in its parent-child links. *)
      let depth = Hashtbl.create (2 * n) in
      List.iter
        (fun (a : Topogen.as_info) -> if a.Topogen.core then Hashtbl.replace depth a.Topogen.ia 0)
        g.Topogen.ases;
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (l : Topogen.link_info) ->
            match (l.Topogen.cls, Hashtbl.find_opt depth l.Topogen.a) with
            | Mesh.Parent_child, Some d -> (
                match Hashtbl.find_opt depth l.Topogen.b with
                | Some e when e <= d + 1 -> ()
                | Some _ | None ->
                    Hashtbl.replace depth l.Topogen.b (d + 1);
                    changed := true)
            | _ -> ())
          g.Topogen.links
      done;
      let depths =
        List.map
          (fun (a : Topogen.as_info) -> Option.value ~default:(-1) (Hashtbl.find_opt depth a.Topogen.ia))
          g.Topogen.ases
      in
      List.for_all (fun d -> d >= 0) depths
      && List.fold_left max 0 depths = Topogen.max_depth g)

let qcheck_byte_identical =
  QCheck.Test.make ~name:"equal (seed, params) give byte-identical topologies" ~count:20
    seed_and_size
    (fun (seed, n) ->
      Topogen.to_string (generate ~seed ~n) = Topogen.to_string (generate ~seed ~n))

let qcheck_seed_sensitive =
  QCheck.Test.make ~name:"different seeds give different topologies" ~count:20 seed_and_size
    (fun (seed, n) ->
      Topogen.to_string (generate ~seed ~n) <> Topogen.to_string (generate ~seed:(seed + 1) ~n))

(* --- Topogen through Network.create -------------------------------------- *)

let nth_ias spec count =
  List.filteri (fun i _ -> i < count) spec.Sciera.Topology.spec_ases
  |> List.map (fun (a : Sciera.Topology.as_info) -> a.Sciera.Topology.ia)

let test_network_multiping_smoke () =
  let gen = Topogen.generate ~seed:0x70F0L (Topogen.default ~n_ases:100) in
  let topology = Sciera.Topology.of_topogen gen in
  let net =
    Sciera.Network.create ~seed:0x70F0L ~topology ~per_origin:2 ~propagate_k:2
      ~rounds:(Topogen.max_depth gen + 2)
      ~verify_pcbs:false ()
  in
  (* Control plane: a leaf (late in attachment order) reaches a core. *)
  let all = List.map (fun (a : Sciera.Topology.as_info) -> a.ia) topology.spec_ases in
  let leaf =
    match List.rev all with l :: _ -> l | [] -> Alcotest.fail "empty topology"
  in
  let core = match all with c :: _ -> c | [] -> Alcotest.fail "empty topology" in
  Alcotest.(check bool) "leaf-to-core paths exist" true
    (Sciera.Network.paths net ~src:leaf ~dst:core <> []);
  (* Data plane: a short multiping campaign over the generated mesh. *)
  let config =
    {
      Sciera.Multiping.interval_s = 600.0;
      pings_per_interval = 1;
      stall_fraction = 0.0;
      stall_sources = [];
    }
  in
  let sources = nth_ias topology 2 in
  let destinations = nth_ias topology 10 in
  let ds = Sciera.Multiping.run net ~config ~days:0.05 ~sources ~destinations () in
  Alcotest.(check bool) "samples recorded" true (ds.Sciera.Multiping.samples <> []);
  Alcotest.(check bool) "scion pings sent" true (ds.Sciera.Multiping.scion_pings > 0);
  let ok, total =
    List.fold_left
      (fun (ok, total) (s : Sciera.Multiping.sample) ->
        ((if s.Sciera.Multiping.scion_ok > 0 then ok + 1 else ok), total + 1))
      (0, 0) ds.Sciera.Multiping.samples
  in
  Alcotest.(check bool)
    (Printf.sprintf "most intervals deliver (%d/%d)" ok total)
    true
    (float_of_int ok >= 0.8 *. float_of_int total)

(* --- Scale accessors ------------------------------------------------------- *)

let test_memo_and_fanout_cap () =
  let net = Sciera.Network.create ~per_origin:2 ~verify_pcbs:false ~fanout_cap:2 () in
  let mesh = Sciera.Network.mesh net in
  let src = Ia.of_string "71-225" and dst = Ia.of_string "71-2:0:5c" in
  ignore (Mesh.paths mesh ~src ~dst);
  ignore (Mesh.paths mesh ~src ~dst);
  let hits, misses = Mesh.memo_stats mesh in
  Alcotest.(check bool) "memo miss then hit" true (hits >= 1 && misses >= 1);
  (* Network.paths reads the same memo: a repeat lookup is a mesh hit. *)
  ignore (Sciera.Network.paths net ~src ~dst);
  ignore (Sciera.Network.paths net ~src ~dst);
  let hits', misses' = Mesh.memo_stats mesh in
  Alcotest.(check (pair int int)) "Network.paths hits the mesh memo" (hits + 2, misses)
    (hits', misses');
  Alcotest.(check bool) "tight cap dropped sends" true (Mesh.fanout_capped mesh > 0)

let () =
  Alcotest.run "topogen"
    [
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_connected;
          QCheck_alcotest.to_alcotest qcheck_core_reachable;
          QCheck_alcotest.to_alcotest qcheck_byte_identical;
          QCheck_alcotest.to_alcotest qcheck_seed_sensitive;
        ] );
      ( "network",
        [
          Alcotest.test_case "multiping smoke (N=100)" `Quick test_network_multiping_smoke;
          Alcotest.test_case "memo and fanout-cap accessors" `Quick test_memo_and_fanout_cap;
        ] );
    ]
