(* The traffic engine's contracts: capacity/queueing knob validation on
   Netsim.Net, max-min fair shares never oversubscribing a link (qcheck),
   the array allocator bit-identical to the reference list-and-map
   progressive filling (differential qcheck) and max-min fair, byte
   conservation (offered = delivered + rejected, qcheck), the
   bandwidth-aware pathmon surface, and the two determinism pins — the
   load figure is byte-identical across runs at a fixed seed, and
   attaching traffic perturbs no fabric workload draw. *)

open Netsim
module Rng = Scion_util.Rng
module Flow = Traffic.Flow
module Workload = Traffic.Workload

let mk_net () = Net.create ~rng:(Rng.of_label 7L "test.traffic.fabric")

(* A capacity-armed chain n0 - n1 - ... - n[k]; returns (net, nodes, links). *)
let chain ?(cap = 1.0e6) ?(queue = 16) k =
  let net = mk_net () in
  let nodes = Array.init (k + 1) (fun i -> Net.add_node net (Printf.sprintf "n%d" i)) in
  let links =
    Array.init k (fun i ->
        let id = Net.add_link net nodes.(i) nodes.(i + 1) Net.default_params in
        Net.set_capacity net id ~bps:cap ~queue_pkts:queue;
        id)
  in
  (net, nodes, links)

let hops_of links nodes first len =
  List.init len (fun k -> { Flow.link = links.(first + k); from = nodes.(first + k) })

(* --- Net capacity knob validation ------------------------------------- *)

let test_capacity_validation () =
  let net = mk_net () in
  let a = Net.add_node net "a" and b = Net.add_node net "b" in
  let l = Net.add_link net a b Net.default_params in
  Alcotest.(check (option (pair (float 1e-9) int))) "unarmed" None (Net.capacity net l);
  List.iter
    (fun bps ->
      Alcotest.check_raises "bad bps"
        (Invalid_argument
           (Printf.sprintf "Net.set_capacity: bps must be finite and > 0 (got %g)" bps))
        (fun () -> Net.set_capacity net l ~bps ~queue_pkts:4))
    [ 0.0; -1.0; Float.nan; Float.infinity ];
  Alcotest.check_raises "bad queue"
    (Invalid_argument "Net.set_capacity: queue_pkts must be >= 1 (got 0)") (fun () ->
      Net.set_capacity net l ~bps:1e6 ~queue_pkts:0);
  Net.set_capacity net l ~bps:2e6 ~queue_pkts:8;
  Alcotest.(check (option (pair (float 1e-9) int))) "armed" (Some (2e6, 8)) (Net.capacity net l);
  Alcotest.(check (float 1e-9)) "no fluid load yet" 0.0 (Net.fluid_load net l ~from:a);
  Alcotest.check_raises "negative fluid load"
    (Invalid_argument "Net.set_fluid_load: bps must be finite and >= 0 (got -1)") (fun () ->
      Net.set_fluid_load net l ~from:a ~bps:(-1.0));
  Net.set_fluid_load net l ~from:a ~bps:1e6;
  Alcotest.(check (float 1e-9)) "fluid load set" 1e6 (Net.fluid_load net l ~from:a);
  Alcotest.(check (float 1e-9)) "reverse direction untouched" 0.0 (Net.fluid_load net l ~from:b);
  let bare = Net.add_link net a b Net.default_params in
  Alcotest.(check (float 1e-9)) "no fluid load unarmed" 0.0 (Net.fluid_load net bare ~from:a);
  Alcotest.check_raises "fluid load needs an armed link"
    (Invalid_argument "Net.set_fluid_load: link has no capacity armed (call set_capacity first)")
    (fun () -> Net.set_fluid_load net bare ~from:a ~bps:1.0)

(* --- Packet-level congestion (hybrid fidelity) ------------------------- *)

let test_fluid_load_slows_transmit () =
  let delivery fluid =
    let net, nodes, links = chain ~cap:1e6 1 in
    if fluid > 0.0 then Net.set_fluid_load net links.(0) ~from:nodes.(0) ~bps:fluid;
    let engine = Engine.create () in
    let at = ref Float.nan in
    Net.transmit net engine links.(0) ~from:nodes.(0) ~size_bytes:10_000
      ~on_arrival:(fun () -> at := Engine.now engine);
    Engine.run engine;
    !at
  in
  let free = delivery 0.0 and loaded = delivery 0.9e6 in
  Alcotest.(check bool) "free link delivers" true (Float.is_finite free);
  (* 80 kbit over 1 Mbps free vs the 100 kbps residual: ~10x slower. *)
  Alcotest.(check bool) "background load slows the packet path" true (loaded > free *. 4.0)

let test_queue_full_drops () =
  let net, nodes, links = chain ~cap:1e6 ~queue:4 1 in
  (* Saturated: serialisation runs at the 1% residual floor, so a
     same-instant burst larger than the FIFO must tail-drop. *)
  Net.set_fluid_load net links.(0) ~from:nodes.(0) ~bps:1e6;
  let engine = Engine.create () in
  let drops = ref 0 and delivered = ref 0 in
  Net.add_monitor net (function
    | Net.Drop { cause = Net.Queue_full; _ } -> incr drops
    | Net.Tx _ | Net.Rx _ | Net.Drop _ -> ());
  for _ = 1 to 10 do
    Net.transmit net engine links.(0) ~from:nodes.(0) ~size_bytes:1500 ~on_arrival:(fun () ->
        incr delivered)
  done;
  Engine.run engine;
  Alcotest.(check int) "FIFO admits its depth" 4 !delivered;
  Alcotest.(check int) "the rest tail-drop" 6 !drops

(* --- Fluid flow engine ------------------------------------------------- *)

let test_single_flow_full_capacity () =
  let net, nodes, links = chain ~cap:1e6 2 in
  let engine = Engine.create () in
  let fct = ref Float.nan in
  let flows =
    Flow.create ~on_complete:(fun ~fct_s ~size_bytes:_ -> fct := fct_s) ~engine net
  in
  (match Flow.offer flows ~hops:(hops_of links nodes 0 2) ~size_bytes:125_000.0 with
  | `Started id -> Alcotest.(check (option (float 1.0))) "full rate" (Some 1e6) (Flow.rate flows id)
  | `Rejected -> Alcotest.fail "single flow rejected");
  Engine.run engine;
  (* 1 Mbit over 1 Mbps: exactly one second. *)
  Alcotest.(check (float 1e-6)) "fct" 1.0 !fct;
  Alcotest.(check int) "drained" 0 (Flow.active_count flows)

let test_fair_share_split () =
  let net, nodes, links = chain ~cap:1e6 1 in
  let engine = Engine.create () in
  let flows = Flow.create ~engine net in
  let id1 =
    match Flow.offer flows ~hops:(hops_of links nodes 0 1) ~size_bytes:1e9 with
    | `Started id -> id
    | `Rejected -> Alcotest.fail "flow 1 rejected"
  in
  (match Flow.offer flows ~hops:(hops_of links nodes 0 1) ~size_bytes:1e9 with
  | `Started _ -> ()
  | `Rejected -> Alcotest.fail "flow 2 rejected");
  Alcotest.(check (option (float 1.0))) "half each" (Some 5e5) (Flow.rate flows id1);
  Alcotest.(check (float 1.0)) "link carries the sum" 1e6
    (Net.fluid_load net links.(0) ~from:nodes.(0))

let test_min_rate_rejects () =
  let net, nodes, links = chain ~cap:1e6 1 in
  let engine = Engine.create () in
  let flows = Flow.create ~min_rate_bps:300_000.0 ~engine net in
  let offer () = Flow.offer flows ~hops:(hops_of links nodes 0 1) ~size_bytes:1e9 in
  (match (offer (), offer (), offer ()) with
  | `Started _, `Started _, `Started _ -> ()
  | _ -> Alcotest.fail "three flows fit above the floor");
  (match offer () with
  | `Rejected -> ()
  | `Started _ -> Alcotest.fail "fourth flow would drop the share below the floor");
  let s = Flow.stats flows in
  Alcotest.(check int) "rejected counted" 1 s.Flow.rejected;
  Alcotest.(check (float 1e-3)) "rejected bytes counted" 1e9 s.Flow.rejected_bytes

let test_offer_validation () =
  let net, nodes, links = chain 1 in
  let engine = Engine.create () in
  let flows = Flow.create ~engine net in
  Alcotest.check_raises "empty hops" (Invalid_argument "Flow.offer: empty hop list") (fun () ->
      ignore (Flow.offer flows ~hops:[] ~size_bytes:1.0));
  Alcotest.check_raises "bad size"
    (Invalid_argument "Flow.offer: size_bytes must be finite and > 0 (got 0)") (fun () ->
      ignore (Flow.offer flows ~hops:(hops_of links nodes 0 1) ~size_bytes:0.0));
  let unarmed = Net.add_link net nodes.(0) nodes.(1) Net.default_params in
  Alcotest.check_raises "unarmed hop"
    (Invalid_argument "Flow.offer: link 1 has no capacity armed (call Net.set_capacity)")
    (fun () ->
      ignore
        (Flow.offer flows ~hops:[ { Flow.link = unarmed; from = nodes.(0) } ] ~size_bytes:1.0))

let test_offer_bad_endpoint_untouched () =
  let net, nodes, links = chain 2 in
  let engine = Engine.create () in
  let flows = Flow.create ~engine net in
  (match Flow.offer flows ~hops:(hops_of links nodes 0 1) ~size_bytes:1e9 with
  | `Started _ -> ()
  | `Rejected -> Alcotest.fail "first flow rejected");
  let loads () =
    Array.to_list links
    |> List.concat_map (fun l ->
           let a, b = Net.endpoints net l in
           [ Net.fluid_load net l ~from:a; Net.fluid_load net l ~from:b ])
  in
  let stats0 = Flow.stats flows and loads0 = loads () in
  (* A valid first hop, then a hop entered from a node that is not an
     endpoint of its link: nothing may be counted, started or pushed. *)
  let hops = [ { Flow.link = links.(0); from = nodes.(0) }; { Flow.link = links.(1); from = nodes.(0) } ] in
  Alcotest.check_raises "bad endpoint"
    (Invalid_argument
       (Printf.sprintf "Flow.offer: node %d is not an endpoint of link %d" nodes.(0) links.(1)))
    (fun () -> ignore (Flow.offer flows ~hops ~size_bytes:1e6));
  Alcotest.(check bool) "stats unchanged" true (Flow.stats flows = stats0);
  Alcotest.(check int) "active unchanged" 1 (Flow.active_count flows);
  Alcotest.(check (list (float 0.0))) "fluid loads unchanged" loads0 (loads ());
  Alcotest.(check (float 0.0)) "first flow still holds the link" 1e6
    (Net.fluid_load net links.(0) ~from:nodes.(0))

let test_admission_counts () =
  let net, nodes, links = chain ~cap:1e6 1 in
  let engine = Engine.create () in
  let flows = Flow.create ~min_rate_bps:300_000.0 ~engine net in
  let fwd = [ { Flow.link = links.(0); from = nodes.(0) } ]
  and back = [ { Flow.link = links.(0); from = nodes.(1) } ] in
  let admitted hops size_bytes =
    match Flow.offer flows ~hops ~size_bytes with `Started _ -> true | `Rejected -> false
  in
  (* Three flows fit each direction above the floor (1e6 / 3 >= 3e5); the
     small first one drains early. *)
  Alcotest.(check (list bool)) "forward fills to the floor" [ true; true; true; false ]
    (List.map (admitted fwd) [ 1_000.0; 1e9; 1e9; 1e9 ]);
  Alcotest.(check (list bool)) "reverse counted independently" [ true; true; true; false ]
    (List.map (admitted back) [ 1e9; 1e9; 1e9; 1e9 ]);
  let late = ref None in
  Engine.schedule_at engine ~time:1.0 (fun () -> late := Some (admitted fwd 1e9));
  Engine.run ~until:1.0 engine;
  Alcotest.(check int) "the small flow completed" 1 (Flow.stats flows).Flow.completed;
  Alcotest.(check (option bool)) "its count is released" (Some true) !late;
  Alcotest.(check bool) "and the floor holds again" false (admitted fwd 1e9)

(* qcheck: random flow populations over a random chain — no directed link
   ever carries more than its capacity, and once the engine drains, every
   offered byte is accounted as delivered or rejected. *)
let qcheck_fair_share_and_conservation =
  QCheck.Test.make ~name:"fair shares never oversubscribe; bytes conserve" ~count:50
    QCheck.(
      triple (int_bound 1000)
        (int_range 2 6) (* chain length *)
        (small_list (pair (int_range 0 5) (int_range 1 400))))
    (fun (seed, len, specs) ->
      let net, nodes, links = chain ~cap:1e6 len in
      let engine = Engine.create () in
      let flows = Flow.create ~min_rate_bps:50_000.0 ~engine net in
      let rng = Rng.of_label (Int64.of_int seed) "test.traffic.qcheck" in
      List.iter
        (fun (first, kb) ->
          let first = min first (len - 1) in
          let span = 1 + Rng.int rng (len - first) in
          ignore
            (Flow.offer flows
               ~hops:(hops_of links nodes first span)
               ~size_bytes:(float_of_int kb *. 1000.0)))
        specs;
      (* Check the invariant at its tightest point: every admission done,
         no completion yet. *)
      Array.iteri
        (fun i l ->
          let load = Net.fluid_load net l ~from:nodes.(i) in
          if load > 1e6 +. 1.0 then
            QCheck.Test.fail_reportf "link %d oversubscribed: %.1f bps" i load)
        links;
      Engine.run engine;
      let s = Flow.stats flows in
      if Flow.active_count flows <> 0 then QCheck.Test.fail_report "flows left undrained";
      let balance = s.Flow.offered_bytes -. (s.Flow.delivered_bytes +. s.Flow.rejected_bytes) in
      if Float.abs balance > 1e-3 *. Float.max 1.0 s.Flow.offered_bytes then
        QCheck.Test.fail_reportf
          "conservation violated: offered %.1f <> delivered %.1f + rejected %.1f"
          s.Flow.offered_bytes s.Flow.delivered_bytes s.Flow.rejected_bytes;
      true)

(* --- Differential test against the reference allocator ------------------ *)

(* The list-and-map progressive filling the array allocator replaced, kept
   as its oracle. Directed links are keyed (link, from) and processed in
   ascending key order; each round freezes the flows of the link with the
   smallest fair share over its unfrozen flows (ties to the smallest key).
   Takes the active flows' hops in ascending id order; returns their rates
   in that order and each loaded directed link's summed load. *)
module LMap = Map.Make (struct
  type t = Net.link_id * Net.node

  let compare (l1, f1) (l2, f2) = match Int.compare l1 l2 with 0 -> Int.compare f1 f2 | c -> c
end)

type ref_flow = { r_hops : Flow.hop array; mutable r_rate : float; mutable r_frozen : bool }

let reference_allocate net hops_in_id_order =
  let active =
    List.map (fun hops -> { r_hops = hops; r_rate = 0.0; r_frozen = false }) hops_in_id_order
  in
  let usage =
    List.fold_left
      (fun acc f ->
        Array.fold_left
          (fun acc (h : Flow.hop) ->
            LMap.update (h.Flow.link, h.Flow.from)
              (fun prev -> Some (f :: Option.value prev ~default:[]))
              acc)
          acc f.r_hops)
      LMap.empty active
  in
  let links =
    List.map
      (fun ((link, _), flows) ->
        let cap = match Net.capacity net link with Some (bps, _) -> bps | None -> 0.0 in
        (cap, List.rev flows))
      (LMap.bindings usage)
  in
  let remaining = ref links in
  let continue = ref true in
  while !continue do
    remaining := List.filter (fun (_, flows) -> List.exists (fun f -> not f.r_frozen) flows) !remaining;
    match !remaining with
    | [] -> continue := false
    | live -> (
        let best = ref None in
        List.iter
          (fun (cap, flows) ->
            let frozen_load, unfrozen =
              List.fold_left
                (fun (load, n) f -> if f.r_frozen then (load +. f.r_rate, n) else (load, n + 1))
                (0.0, 0) flows
            in
            if unfrozen > 0 then begin
              let share = Float.max 0.0 (cap -. frozen_load) /. float_of_int unfrozen in
              match !best with Some (s, _) when s <= share -> () | _ -> best := Some (share, flows)
            end)
          live;
        match !best with
        | None -> continue := false
        | Some (share, flows) ->
            List.iter
              (fun f ->
                if not f.r_frozen then begin
                  f.r_frozen <- true;
                  f.r_rate <- share
                end)
              flows)
  done;
  let sums =
    List.fold_left
      (fun acc f ->
        Array.fold_left
          (fun acc (h : Flow.hop) ->
            LMap.update (h.Flow.link, h.Flow.from)
              (fun prev -> Some (f.r_rate +. Option.value prev ~default:0.0))
              acc)
          acc f.r_hops)
      LMap.empty active
  in
  (List.map (fun f -> f.r_rate) active, sums)

(* The reference admission bound: scan every active flow's hops for every
   hop of the newcomer. *)
let reference_admissible net ~min_rate_bps active (hops : Flow.hop array) =
  min_rate_bps <= 0.0
  || Array.for_all
       (fun (h : Flow.hop) ->
         match Net.capacity net h.Flow.link with
         | None -> false
         | Some (bps, _) ->
             let crossing =
               List.length
                 (List.filter
                    (fun (_, hops') ->
                      Array.exists
                        (fun (h' : Flow.hop) -> h'.Flow.link = h.Flow.link && h'.Flow.from = h.Flow.from)
                        hops')
                    active)
             in
             bps /. float_of_int (crossing + 1) >= min_rate_bps)
       hops

(* A random armed mesh on [n] nodes: a ring (so every node has a link)
   plus chords (possibly parallel to a ring link), each link added with a random endpoint order and one of a
   few capacities, so equal shares and exact ties are common. *)
let random_mesh rng n extra =
  let net = mk_net () in
  let nodes = Array.init n (fun i -> Net.add_node net (Printf.sprintf "m%d" i)) in
  let add a b =
    let a, b = if Rng.bool rng then (a, b) else (b, a) in
    let id = Net.add_link net nodes.(a) nodes.(b) Net.default_params in
    let caps = [| 1e6; 1e6; 2e6; 5e5; 3e6 |] in
    Net.set_capacity net id ~bps:caps.(Rng.int rng (Array.length caps)) ~queue_pkts:8;
    id
  in
  let ring = List.init n (fun i -> add i ((i + 1) mod n)) in
  let chords =
    List.init extra (fun _ ->
        let a = Rng.int rng n in
        add a ((a + 1 + Rng.int rng (n - 1)) mod n))
  in
  (net, Array.of_list (ring @ chords))

(* A random walk of [len] hops from [start]: every hop enters its link
   from the walker's current node, so links are crossed in both
   directions and may be crossed twice by one flow. *)
let random_walk net rng links ~start ~len =
  let incident node =
    List.filter
      (fun l ->
        let a, b = Net.endpoints net l in
        a = node || b = node)
      (Array.to_list links)
  in
  let rec go node k acc =
    if k = 0 then List.rev acc
    else
      match incident node with
      | [] -> List.rev acc
      | ls ->
          let l = List.nth ls (Rng.int rng (List.length ls)) in
          let a, b = Net.endpoints net l in
          go (if a = node then b else a) (k - 1) ({ Flow.link = l; from = node } :: acc)
  in
  go start len []

let qcheck_differential =
  QCheck.Test.make ~name:"array allocator matches the reference, bit for bit" ~count:200
    QCheck.(triple (int_bound 100_000) (int_range 3 6) (int_range 2 30))
    (fun (seed, n, n_flows) ->
      let rng = Rng.of_label (Int64.of_int seed) "test.traffic.differential" in
      let net, links = random_mesh rng n (Rng.int rng 4) in
      let min_rate_bps = if Rng.bool rng then 0.0 else 150_000.0 in
      let engine = Engine.create () in
      let flows = Flow.create ~min_rate_bps ~engine net in
      (* The model: active (id, hops) in id order, pruned to what the
         engine still carries after each event. *)
      let active = ref [] in
      let check_allocation what =
        active := List.filter (fun (id, _) -> Flow.rate flows id <> None) !active;
        if List.length !active <> Flow.active_count flows then
          QCheck.Test.fail_reportf "%s: model holds %d flows, engine %d" what
            (List.length !active) (Flow.active_count flows);
        let rates, sums = reference_allocate net (List.map snd !active) in
        List.iter2
          (fun (id, _) r ->
            match Flow.rate flows id with
            | Some r' when Float.equal r r' -> ()
            | got ->
                QCheck.Test.fail_reportf "%s: flow %d rate %s, reference %h" what id
                  (match got with Some x -> Printf.sprintf "%h" x | None -> "none")
                  r)
          !active rates;
        Array.iter
          (fun l ->
            let a, b = Net.endpoints net l in
            List.iter
              (fun from ->
                let want = Option.value (LMap.find_opt (l, from) sums) ~default:0.0 in
                let got = Net.fluid_load net l ~from in
                if not (Float.equal want got) then
                  QCheck.Test.fail_reportf "%s: link %d from %d carries %h, reference %h" what l
                    from got want)
              [ a; b ])
          links;
        (* Max-min: each flow is bottlenecked on a saturated link where no
           flow gets more than it does. *)
        List.iter2
          (fun (id, (hops : Flow.hop array)) r ->
            let bottleneck (h : Flow.hop) =
              let cap = match Net.capacity net h.Flow.link with Some (c, _) -> c | None -> 0.0 in
              let load = Net.fluid_load net h.Flow.link ~from:h.Flow.from in
              Float.abs (load -. cap) <= 1e-9 *. cap
              && List.for_all2
                   (fun (_, hops') r' ->
                     (not
                        (Array.exists
                           (fun (h' : Flow.hop) ->
                             h'.Flow.link = h.Flow.link && h'.Flow.from = h.Flow.from)
                           hops'))
                     || r' <= r *. (1.0 +. 1e-9))
                   !active rates
            in
            if not (Array.exists bottleneck hops) then
              QCheck.Test.fail_reportf "%s: flow %d (rate %g) has no bottleneck link" what id r)
          !active rates
      in
      (* Two flows enter link 0 from either end, then random walks. *)
      let l0 = links.(0) in
      let a0, b0 = Net.endpoints net l0 in
      let specs =
        [ [ { Flow.link = l0; from = a0 } ]; [ { Flow.link = l0; from = b0 } ] ]
        @ List.init n_flows (fun _ ->
              random_walk net rng links ~start:(Rng.int rng n) ~len:(1 + Rng.int rng 4))
      in
      List.iteri
        (fun i hops ->
          let at = if i < 2 then 0.0 else float_of_int (Rng.int rng 2000) /. 1000.0 in
          let size_bytes = float_of_int (1 + Rng.int rng 200) *. 1000.0 in
          Engine.schedule_at engine ~time:at (fun () ->
              let arr = Array.of_list hops in
              let expect = reference_admissible net ~min_rate_bps !active arr in
              (match Flow.offer flows ~hops ~size_bytes with
              | `Started id ->
                  if not expect then QCheck.Test.fail_reportf "flow %d admitted, reference rejects" id;
                  active := !active @ [ (id, arr) ]
              | `Rejected ->
                  if expect then QCheck.Test.fail_report "flow rejected, reference admits");
              check_allocation "offer"))
        specs;
      while Engine.step engine do
        check_allocation "event"
      done;
      Flow.active_count flows = 0)

(* --- Workload generator ------------------------------------------------ *)

let pops n =
  List.init n (fun i ->
      {
        Workload.name = Printf.sprintf "pop%d" i;
        weight = 1.0 +. float_of_int (i mod 3);
        phase_h = float_of_int (i * 3);
      })

let test_workload_validation () =
  let engine = Engine.create () in
  let rng = Rng.of_label 1L "traffic" in
  let sink ~now:_ ~src:_ ~dst:_ ~size_bytes:_ = () in
  Alcotest.check_raises "one pop" (Invalid_argument "Workload.attach: need at least two PoPs")
    (fun () -> ignore (Workload.attach ~engine ~rng ~pops:(pops 1) ~duration_s:1.0 ~sink ()));
  Alcotest.check_raises "bad alpha"
    (Invalid_argument "Workload: pareto_alpha must be finite and > 0 (got 0)") (fun () ->
      let config = { (Workload.make_config ()) with Workload.pareto_alpha = 0.0 } in
      ignore (Workload.attach ~engine ~rng ~config ~pops:(pops 2) ~duration_s:1.0 ~sink ()));
  Alcotest.check_raises "cap below scale"
    (Invalid_argument "Workload: max_flow_bytes must be >= pareto_xm_bytes") (fun () ->
      ignore (Workload.make_config ~pareto_xm_bytes:1e6 ~max_flow_bytes:1e3 ()))

let test_workload_statistics () =
  let engine = Engine.create () in
  let rng = Rng.of_label 42L "traffic" in
  let config = Workload.make_config ~base_rate_per_s:20.0 ~day_s:600.0 () in
  let n = ref 0 and bad_size = ref 0 and self_pair = ref 0 in
  let wl =
    Workload.attach ~engine ~rng ~config ~pops:(pops 6) ~duration_s:60.0
      ~sink:(fun ~now:_ ~src ~dst ~size_bytes ->
        incr n;
        if
          size_bytes < config.Workload.pareto_xm_bytes
          || size_bytes > config.Workload.max_flow_bytes
        then incr bad_size;
        if String.equal src.Workload.name dst.Workload.name then incr self_pair)
      ()
  in
  Engine.run engine;
  Alcotest.(check int) "sink saw every arrival" !n (Workload.arrivals wl);
  (* 20/s over 60 s, modulated by the mild diurnal curve — a loose band
     around the 1200 nominal arrivals. *)
  Alcotest.(check bool)
    (Printf.sprintf "arrival volume plausible (%d)" !n)
    true
    (!n > 200 && !n < 2400);
  Alcotest.(check int) "sizes within [xm, cap]" 0 !bad_size;
  Alcotest.(check int) "no self pairs" 0 !self_pair

let test_workload_replay_identical () =
  (* Re-deriving the stream replays byte-identical arrivals regardless of
     where the engine clock stands — the property the load figure's
     arm-pairing rests on. *)
  let record ~warmup =
    let engine = Engine.create () in
    if warmup > 0.0 then begin
      Engine.schedule_at engine ~time:warmup (fun () -> ());
      Engine.run engine
    end;
    let rng = Rng.of_label 7L "traffic" in
    let log = ref [] in
    let _wl =
      Workload.attach ~engine ~rng ~pops:(pops 5) ~duration_s:30.0
        ~sink:(fun ~now ~src ~dst ~size_bytes ->
          log := (now -. warmup, src.Workload.name, dst.Workload.name, size_bytes) :: !log)
        ()
    in
    Engine.run engine;
    List.rev !log
  in
  let a = record ~warmup:0.0 and b = record ~warmup:1234.5 in
  Alcotest.(check int) "same arrival count" (List.length a) (List.length b);
  List.iter2
    (fun (t1, s1, d1, z1) (t2, s2, d2, z2) ->
      Alcotest.(check (float 1e-9)) "same relative time" t1 t2;
      Alcotest.(check string) "same src" s1 s2;
      Alcotest.(check string) "same dst" d1 d2;
      Alcotest.(check (float 1e-9)) "same size" z1 z2)
    a b

(* --- Endpoint pairs on the 29-AS mesh ----------------------------------- *)

(* First measurement-point pair (in spec order) with at least [min_paths]
   control-plane paths. *)
let find_pair net ~min_paths =
  let infos =
    List.filter
      (fun (a : Sciera.Topology.as_info) -> a.Sciera.Topology.measurement_point)
      (Sciera.Network.topology net).Sciera.Topology.spec_ases
  in
  let hit =
    List.find_map
      (fun (a : Sciera.Topology.as_info) ->
        List.find_map
          (fun (b : Sciera.Topology.as_info) ->
            let src = a.Sciera.Topology.ia and dst = b.Sciera.Topology.ia in
            if Scion_addr.Ia.equal src dst then None
            else if List.length (Sciera.Network.paths net ~src ~dst) >= min_paths then
              Some (src, dst)
            else None)
          infos)
      infos
  in
  match hit with
  | Some pair -> pair
  | None -> Alcotest.fail (Printf.sprintf "no measurement pair with >= %d paths" min_paths)

(* --- RNG isolation ------------------------------------------------------ *)

(* The determinism contract of the whole subsystem: arming capacities and
   running a full workload + fluid-flow campaign must leave the network's
   fabric workload stream byte-identical — traffic draws only from its
   private stream, and fluid flows never transmit packets. *)
let test_traffic_rng_isolation () =
  let draws_after attach_traffic =
    let net = Sciera.Network.create ~per_origin:4 ~verify_pcbs:false () in
    if attach_traffic then begin
      Sciera.Network.arm_capacities net ~bps:1.5e6 ~queue_pkts:32;
      let engine = Engine.create () in
      let rng = Rng.of_label 99L "traffic" in
      let src, dst = find_pair net ~min_paths:1 in
      let hops =
        match Sciera.Network.paths net ~src ~dst with
        | p :: _ -> Sciera.Network.path_hops net ~src p
        | [] -> Alcotest.fail "no path for the isolation pair"
      in
      let flows = Flow.create ~engine (Sciera.Network.scion_fabric net) in
      let wl =
        Workload.attach ~engine ~rng ~pops:(pops 4) ~duration_s:20.0
          ~sink:(fun ~now:_ ~src:_ ~dst:_ ~size_bytes ->
            ignore (Flow.offer flows ~hops ~size_bytes))
          ()
      in
      Engine.run engine;
      Alcotest.(check bool) "campaign actually ran" true (Workload.arrivals wl > 0);
      Alcotest.(check int) "campaign drained" 0 (Flow.active_count flows)
    end;
    let workload = Sciera.Network.rng net in
    Array.init 64 (fun _ -> Rng.int workload max_int)
  in
  let quiet = draws_after false in
  let loaded = draws_after true in
  Alcotest.(check (array int)) "fabric workload stream untouched by traffic" quiet loaded

(* --- The load figure ---------------------------------------------------- *)

let check_cell_equal (x : Sciera.Exp_load.cell) (y : Sciera.Exp_load.cell) =
  let open Sciera.Exp_load in
  let exact = Alcotest.(check (float 0.0)) in
  Alcotest.(check string) "scale" x.c_scale y.c_scale;
  Alcotest.(check string) "arm" (arm_name x.c_arm) (arm_name y.c_arm);
  exact "load" x.c_load y.c_load;
  exact "offered" x.c_offered_mbps y.c_offered_mbps;
  exact "goodput" x.c_goodput_mbps y.c_goodput_mbps;
  exact "mean fct" x.c_mean_fct_s y.c_mean_fct_s;
  exact "p99 fct" x.c_p99_fct_s y.c_p99_fct_s;
  exact "reject" x.c_reject_pct y.c_reject_pct;
  exact "fg drop" x.c_fg_drop_pct y.c_fg_drop_pct;
  exact "fg delay" x.c_fg_delay_ms y.c_fg_delay_ms;
  Alcotest.(check int) "arrivals" x.c_arrivals y.c_arrivals;
  Alcotest.(check int) "completed" x.c_completed y.c_completed

let test_load_deterministic () =
  let open Sciera.Exp_load in
  (* Byte-identical metrics across runs at a fixed seed. *)
  let sweep () = run ~loads:[ 0.8 ] ~duration_s:5.0 ~topogen_ases:40 () in
  let a = sweep () and b = sweep () in
  Alcotest.(check int) "same cell count" (List.length a.cells) (List.length b.cells);
  List.iter2 check_cell_equal a.cells b.cells;
  Alcotest.(check (float 0.0)) "same gain" a.mp_goodput_gain b.mp_goodput_gain;
  Alcotest.(check (float 0.0)) "same p99 ratio" a.mp_p99_fct_ratio b.mp_p99_fct_ratio;
  (* Within one run, both arms of a scale saw the byte-identical arrival
     sequence — the paired-comparison design. *)
  List.iter
    (fun (c : cell) ->
      match
        List.find_opt
          (fun (d : cell) ->
            String.equal d.c_scale c.c_scale
            && (not (String.equal (arm_name d.c_arm) (arm_name c.c_arm)))
            && Float.abs (d.c_load -. c.c_load) < 1e-9)
          a.cells
      with
      | Some other ->
          Alcotest.(check int) "arms share the arrival sequence" c.c_arrivals other.c_arrivals;
          Alcotest.(check (float 0.0)) "arms share the offered bytes" c.c_offered_mbps
            other.c_offered_mbps
      | None -> Alcotest.fail "missing paired arm")
    a.cells;
  Alcotest.(check bool) "validation: empty sweep rejected" true
    (try
       ignore (run ~loads:[] ~duration_s:5.0 ~topogen_ases:40 ());
       false
     with Invalid_argument _ -> true)

(* --- Headroom-aware flow placement -------------------------------------- *)

let test_pick_flow_path () =
  let net = Sciera.Network.create ~per_origin:4 ~verify_pcbs:false () in
  let src, dst = find_pair net ~min_paths:2 in
  let paths = Sciera.Network.paths net ~src ~dst in
  let latency_of = Sciera.Network.scion_rtt_base net in
  let fp (p : Scion_controlplane.Combinator.fullpath) =
    p.Scion_controlplane.Combinator.fingerprint
  in
  let pick headroom = Scion_endhost.Pan.pick_flow_path ~latency_of ~headroom paths in
  let flat =
    match pick (fun _ -> 1000.0) with
    | Some p -> p
    | None -> Alcotest.fail "no pick with uniform headroom"
  in
  (* Uniform headroom: the tie resolves to the policy's preference order. *)
  let preferred =
    match Scion_endhost.Pan.sort_paths Scion_endhost.Pan.default_policy ~latency_of paths with
    | p :: _ -> p
    | [] -> Alcotest.fail "policy admitted no path"
  in
  Alcotest.(check string) "tie goes to the policy-preferred path" (fp preferred) (fp flat);
  (* Starve the chosen path of headroom: the picker must move off it. *)
  (match pick (fun p -> if String.equal (fp p) (fp flat) then 0.0 else 1000.0) with
  | Some p ->
      Alcotest.(check bool) "congestion moves the pick" false (String.equal (fp p) (fp flat))
  | None -> Alcotest.fail "no pick after starving the best path");
  Alcotest.(check bool) "empty candidates yield none" true
    (match Scion_endhost.Pan.pick_flow_path ~latency_of ~headroom:(fun _ -> 1.0) [] with
    | None -> true
    | Some _ -> false)

let () =
  Alcotest.run "traffic"
    [
      ( "net-capacity",
        [
          Alcotest.test_case "knob validation" `Quick test_capacity_validation;
          Alcotest.test_case "fluid load slows packets" `Quick test_fluid_load_slows_transmit;
          Alcotest.test_case "queue full drops" `Quick test_queue_full_drops;
        ] );
      ( "flow",
        [
          Alcotest.test_case "single flow full capacity" `Quick test_single_flow_full_capacity;
          Alcotest.test_case "fair share split" `Quick test_fair_share_split;
          Alcotest.test_case "admission floor rejects" `Quick test_min_rate_rejects;
          Alcotest.test_case "offer validation" `Quick test_offer_validation;
          Alcotest.test_case "bad endpoint leaves state untouched" `Quick
            test_offer_bad_endpoint_untouched;
          Alcotest.test_case "admission counts per direction" `Quick test_admission_counts;
          QCheck_alcotest.to_alcotest qcheck_fair_share_and_conservation;
          QCheck_alcotest.to_alcotest qcheck_differential;
        ] );
      ( "workload",
        [
          Alcotest.test_case "validation" `Quick test_workload_validation;
          Alcotest.test_case "statistics" `Quick test_workload_statistics;
          Alcotest.test_case "replay identical" `Quick test_workload_replay_identical;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "traffic rng isolation" `Slow test_traffic_rng_isolation;
          Alcotest.test_case "load figure deterministic" `Slow test_load_deterministic;
        ] );
      ( "pathmon-bandwidth",
        [
          Alcotest.test_case "pan pick_flow_path" `Quick test_pick_flow_path;
        ] );
    ]
