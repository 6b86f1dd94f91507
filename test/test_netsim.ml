open Netsim
module Rng = Scion_util.Rng

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e ~time:(Engine.now e +. 3.0) (fun () -> log := 3 :: !log);
  Engine.schedule_at e ~time:(Engine.now e +. 1.0) (fun () -> log := 1 :: !log);
  Engine.schedule_at e ~time:(Engine.now e +. 2.0) (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3.0 (Engine.now e)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 10 do
    Engine.schedule_at e ~time:(Engine.now e +. 1.0) (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e ~time:(Engine.now e +. 1.0) (fun () ->
      log := "a" :: !log;
      Engine.schedule_at e ~time:(Engine.now e +. 0.5) (fun () -> log := "b" :: !log));
  Engine.schedule_at e ~time:(Engine.now e +. 2.0) (fun () -> log := "c" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "a"; "b"; "c" ] (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Engine.schedule_at e ~time:(Engine.now e +. 1.0) tick
  in
  Engine.schedule_at e ~time:(Engine.now e +. 1.0) tick;
  Engine.run ~until:10.5 e;
  Alcotest.(check int) "ten ticks" 10 !count;
  Alcotest.(check (float 1e-9)) "clock at limit" 10.5 (Engine.now e)

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule_at e ~time:5.0 ignore;
  Engine.run e;
  try
    Engine.schedule_at e ~time:4.0 ignore;
    Alcotest.fail "accepted past event"
  with Invalid_argument _ -> ()

let test_engine_many_events () =
  let e = Engine.create () in
  let rng = Rng.create 11L in
  let sum = ref 0.0 in
  let last = ref 0.0 in
  let monotone = ref true in
  for _ = 1 to 5000 do
    let t = Rng.float rng 1000.0 in
    Engine.schedule_at e ~time:(Engine.now e +. t) (fun () ->
        if Engine.now e < !last then monotone := false;
        last := Engine.now e;
        sum := !sum +. 1.0)
  done;
  Engine.run e;
  Alcotest.(check (float 0.5)) "all ran" 5000.0 !sum;
  Alcotest.(check bool) "monotone clock" true !monotone

(* --- Net --- *)

let mk_net () =
  let net = Net.create ~rng:(Rng.create 7L) in
  let a = Net.add_node net "a" in
  let b = Net.add_node net "b" in
  let c = Net.add_node net "c" in
  let ab = Net.add_link net a b { Net.default_params with latency_ms = 10.0; jitter_ms = 0.1 } in
  let bc = Net.add_link net b c { Net.default_params with latency_ms = 20.0; jitter_ms = 0.1 } in
  let ac = Net.add_link net a c { Net.default_params with latency_ms = 50.0; jitter_ms = 0.1 } in
  (net, a, b, c, ab, bc, ac)

let test_net_basic () =
  let net, a, _, c, ab, _, _ = mk_net () in
  Alcotest.(check int) "links" 3 (Net.num_links net);
  Alcotest.(check bool) "name" true (Net.node_of_name net "a" = Some a);
  Alcotest.(check bool) "lookup" true (Net.node_of_name net "c" = Some c);
  Alcotest.(check bool) "unknown" true (Net.node_of_name net "zz" = None);
  let x, y = Net.endpoints net ab in
  Alcotest.(check bool) "endpoints" true (x = a && y <> a);
  try
    ignore (Net.add_node net "a");
    Alcotest.fail "duplicate accepted"
  with Invalid_argument _ -> ()

let test_net_sampling () =
  let net, _, _, _, ab, _, _ = mk_net () in
  for _ = 1 to 100 do
    match Net.path_rtt net [ ab ] with
    | `Rtt ms -> Alcotest.(check bool) "at least twice the base" true (ms >= 20.0)
    | `Lost -> Alcotest.fail "lossless link lost a packet"
  done;
  Net.set_link_up net ab false;
  (match Net.path_rtt net [ ab ] with
  | `Lost -> ()
  | `Rtt _ -> Alcotest.fail "down link delivered");
  Net.set_link_up net ab true

let test_net_lossy_link () =
  let net = Net.create ~rng:(Rng.create 9L) in
  let a = Net.add_node net "a" and b = Net.add_node net "b" in
  (* A round trip crosses the link twice: per-traversal loss 1 - sqrt 0.5
     loses half the pings. *)
  let l = Net.add_link net a b { Net.default_params with loss = 1.0 -. sqrt 0.5 } in
  let lost = ref 0 in
  for _ = 1 to 1000 do
    match Net.path_rtt net [ l ] with `Lost -> incr lost | `Rtt _ -> ()
  done;
  Alcotest.(check bool) "about half lost" true (!lost > 400 && !lost < 600)

let test_net_path_rtt () =
  let net, _, _, _, ab, bc, _ = mk_net () in
  match Net.path_rtt net [ ab; bc ] with
  | `Rtt ms -> Alcotest.(check bool) "rtt >= 2*(10+20)" true (ms >= 60.0 && ms < 90.0)
  | `Lost -> Alcotest.fail "lost"

let test_net_base_latency_and_extra () =
  let net, _, _, _, ab, bc, _ = mk_net () in
  Alcotest.(check (float 1e-9)) "base" 30.0 (Net.path_base_latency net [ ab; bc ]);
  Net.set_extra_latency net ab 15.0;
  Alcotest.(check (float 1e-9)) "with maintenance" 45.0 (Net.path_base_latency net [ ab; bc ]);
  Alcotest.(check (float 1e-9)) "readback" 15.0 (Net.extra_latency net ab);
  Net.set_extra_latency net ab 0.0

let test_net_dijkstra () =
  let net, a, _, c, ab, bc, ac = mk_net () in
  (match Net.dijkstra net ~src:a ~dst:c with
  | Some (cost, route) ->
      Alcotest.(check (float 1e-9)) "via b is cheaper" 30.0 cost;
      Alcotest.(check (list int)) "route" [ ab; bc ] route
  | None -> Alcotest.fail "no route");
  (* Min-hop prefers the direct link. *)
  (match Net.min_hop_route net ~src:a ~dst:c with
  | Some route -> Alcotest.(check (list int)) "direct" [ ac ] route
  | None -> Alcotest.fail "no route");
  (* Failure reroutes. *)
  Net.set_link_up net ab false;
  (match Net.dijkstra net ~src:a ~dst:c with
  | Some (cost, _) -> Alcotest.(check (float 1e-9)) "forced direct" 50.0 cost
  | None -> Alcotest.fail "no route after failure");
  Net.set_link_up net ab true;
  (* Degradation shifts the optimum. *)
  Net.set_extra_latency net ab 100.0;
  (match Net.dijkstra net ~src:a ~dst:c with
  | Some (cost, _) -> Alcotest.(check (float 1e-9)) "degraded avoids ab" 50.0 cost
  | None -> Alcotest.fail "no route");
  Net.set_extra_latency net ab 0.0

let test_net_connectivity () =
  let net, a, b, c, ab, _, ac = mk_net () in
  Alcotest.(check bool) "connected" true (Net.connected net ~src:a ~dst:c);
  Net.set_link_up net ab false;
  Net.set_link_up net ac false;
  Alcotest.(check bool) "a cut off from c" false (Net.connected net ~src:a ~dst:c);
  Alcotest.(check bool) "b-c fine" true (Net.connected net ~src:b ~dst:c);
  Net.set_link_up net ab true;
  Net.set_link_up net ac true

let test_net_transmit () =
  let net, a, _, _, ab, _, _ = mk_net () in
  let engine = Engine.create () in
  let arrivals = ref [] in
  for _ = 1 to 5 do
    Net.transmit net engine ab ~from:a ~size_bytes:1500 ~on_arrival:(fun () ->
        arrivals := Engine.now engine :: !arrivals)
  done;
  Engine.run engine;
  Alcotest.(check int) "all arrive" 5 (List.length !arrivals);
  let sorted = List.sort compare !arrivals in
  Alcotest.(check (list (float 1e-9))) "fifo order preserved" sorted (List.rev !arrivals);
  (* Each arrival is at least propagation (10ms = 0.01s) after start. *)
  List.iter (fun t -> Alcotest.(check bool) "after prop delay" true (t >= 0.01)) !arrivals

let test_net_transmit_down_link_drops () =
  let net, a, _, _, ab, _, _ = mk_net () in
  let engine = Engine.create () in
  Net.set_link_up net ab false;
  let arrived = ref false in
  Net.transmit net engine ab ~from:a ~size_bytes:100 ~on_arrival:(fun () -> arrived := true);
  Engine.run engine;
  Alcotest.(check bool) "dropped" false !arrived

let qcheck_dijkstra_optimality =
  (* On random graphs, dijkstra cost <= cost of any single direct link and
     route endpoints line up. *)
  QCheck.Test.make ~name:"dijkstra route is consistent" ~count:50
    QCheck.(int_bound 1000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int (seed + 1)) in
      let net = Net.create ~rng in
      let n = 8 in
      let nodes = Array.init n (fun i -> Net.add_node net (string_of_int i)) in
      (* Random connected-ish graph: chain + extra random links. *)
      for i = 0 to n - 2 do
        ignore
          (Net.add_link net nodes.(i) nodes.(i + 1)
             { Net.default_params with latency_ms = float_of_int (1 + Rng.int rng 50) })
      done;
      for _ = 1 to 6 do
        let a = Rng.int rng n and b = Rng.int rng n in
        if a <> b then
          ignore
            (Net.add_link net nodes.(a) nodes.(b)
               { Net.default_params with latency_ms = float_of_int (1 + Rng.int rng 50) })
      done;
      match Net.dijkstra net ~src:nodes.(0) ~dst:nodes.(n - 1) with
      | None -> false
      | Some (cost, route) ->
          let sum = Net.path_base_latency net route in
          abs_float (cost -. sum) < 1e-6
          && cost <= Net.path_base_latency net (List.init (n - 1) Fun.id))

(* --- Parameter validation ---------------------------------------------- *)

let fresh_pair () =
  let net = Net.create ~rng:(Rng.create 11L) in
  let a = Net.add_node net "a" in
  let b = Net.add_node net "b" in
  (net, a, b)

let rejects f = match f () with exception Invalid_argument _ -> true | _ -> false

let test_add_link_validation () =
  let p = Net.default_params in
  let try_params name bad =
    let net, a, b = fresh_pair () in
    Alcotest.(check bool) name true (rejects (fun () -> Net.add_link net a b bad))
  in
  try_params "NaN latency" { p with latency_ms = Float.nan };
  try_params "negative latency" { p with latency_ms = -1.0 };
  try_params "infinite latency" { p with latency_ms = Float.infinity };
  try_params "NaN jitter" { p with jitter_ms = Float.nan };
  try_params "negative jitter" { p with jitter_ms = -0.5 };
  try_params "loss below 0" { p with loss = -0.01 };
  try_params "loss above 1" { p with loss = 1.01 };
  try_params "NaN loss" { p with loss = Float.nan };
  try_params "zero bandwidth" { p with bandwidth_mbps = 0.0 };
  try_params "negative bandwidth" { p with bandwidth_mbps = -10.0 };
  try_params "NaN bandwidth" { p with bandwidth_mbps = Float.nan };
  let net, a, b = fresh_pair () in
  Alcotest.(check bool) "self loop" true (rejects (fun () -> Net.add_link net a a p));
  let l = Net.add_link net a b p in
  Alcotest.(check int) "good params accepted" 0 l

let test_extra_latency_validation () =
  let net, a, b = fresh_pair () in
  let l = Net.add_link net a b Net.default_params in
  Alcotest.(check bool) "NaN extra latency" true
    (rejects (fun () -> Net.set_extra_latency net l Float.nan));
  Alcotest.(check bool) "negative extra latency" true
    (rejects (fun () -> Net.set_extra_latency net l (-3.0)));
  Alcotest.(check bool) "infinite extra latency" true
    (rejects (fun () -> Net.set_extra_latency net l Float.infinity));
  Net.set_extra_latency net l 12.5;
  Alcotest.(check (float 1e-9)) "valid extra latency kept" 12.5 (Net.extra_latency net l)

let test_extra_loss_validation () =
  let net, a, b = fresh_pair () in
  let l = Net.add_link net a b { Net.default_params with loss = 0.4 } in
  Alcotest.(check bool) "loss above 1" true (rejects (fun () -> Net.set_extra_loss net l 1.2));
  Alcotest.(check bool) "negative loss" true (rejects (fun () -> Net.set_extra_loss net l (-0.2)));
  Alcotest.(check bool) "NaN loss" true (rejects (fun () -> Net.set_extra_loss net l Float.nan));
  Net.set_extra_loss net l 0.6;
  Alcotest.(check (float 1e-9)) "valid extra loss kept" 0.6 (Net.extra_loss net l);
  (* base 0.4 + extra 0.6 saturates: every traversal is lost. *)
  for _ = 1 to 50 do
    match Net.path_rtt net [ l ] with
    | `Lost -> ()
    | `Rtt _ -> Alcotest.fail "loss saturated at 1.0 must drop every packet"
  done;
  Net.set_extra_loss net l 0.0;
  Alcotest.(check (float 1e-9)) "burst cleared" 0.0 (Net.extra_loss net l)

(* --- Ordering across runs / monitor ordering ------------------------------ *)

(* Same-instant events fire in scheduling order, also after the queue has
   drained once: an event scheduled while its instant is being processed
   joins behind everything already queued for that instant. *)
let test_engine_same_instant_order () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule_at e ~time:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "scheduling order" [ 1; 2; 3; 4; 5 ] (List.rev !log);
  log := [];
  Engine.schedule_at e ~time:2.0 (fun () ->
      log := 1 :: !log;
      Engine.schedule_at e ~time:2.0 (fun () -> log := 6 :: !log));
  for i = 2 to 5 do
    Engine.schedule_at e ~time:2.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "late event last" [ 1; 2; 3; 4; 5; 6 ] (List.rev !log)

let test_net_monitor_order () =
  let net = Net.create ~rng:(Rng.create 21L) in
  let a = Net.add_node net "a" and b = Net.add_node net "b" in
  let l = Net.add_link net a b { Net.default_params with loss = 0.0 } in
  let log = ref [] in
  for i = 1 to 4 do
    Net.add_monitor net (fun _ev -> log := i :: !log)
  done;
  let e = Engine.create () in
  Net.transmit net e l ~from:a ~size_bytes:100 ~on_arrival:(fun () -> ());
  Engine.run e;
  (* Tx then Rx, each fanning out to the four monitors in order. *)
  Alcotest.(check (list int)) "fan-out order" [ 1; 2; 3; 4; 1; 2; 3; 4 ] (List.rev !log);
  log := [];
  Net.set_monitor net (fun _ev -> log := 9 :: !log);
  let e2 = Engine.create () in
  Net.transmit net e2 l ~from:a ~size_bytes:100 ~on_arrival:(fun () -> ());
  Engine.run e2;
  Alcotest.(check (list int)) "set_monitor replaces all" [ 9; 9 ] (List.rev !log)

let () =
  Alcotest.run "netsim"
    [
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "fifo same time" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "nested" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
          Alcotest.test_case "many events" `Quick test_engine_many_events;
          Alcotest.test_case "same-instant order across runs" `Quick test_engine_same_instant_order;
        ] );
      ( "net",
        [
          Alcotest.test_case "basic" `Quick test_net_basic;
          Alcotest.test_case "sampling" `Quick test_net_sampling;
          Alcotest.test_case "lossy link" `Quick test_net_lossy_link;
          Alcotest.test_case "path rtt" `Quick test_net_path_rtt;
          Alcotest.test_case "base latency + extra" `Quick test_net_base_latency_and_extra;
          Alcotest.test_case "dijkstra" `Quick test_net_dijkstra;
          Alcotest.test_case "connectivity" `Quick test_net_connectivity;
          Alcotest.test_case "transmit" `Quick test_net_transmit;
          Alcotest.test_case "down link drops" `Quick test_net_transmit_down_link_drops;
          Alcotest.test_case "monitor order" `Quick test_net_monitor_order;
          QCheck_alcotest.to_alcotest qcheck_dijkstra_optimality;
        ] );
      ( "validation",
        [
          Alcotest.test_case "add_link rejects bad params" `Quick test_add_link_validation;
          Alcotest.test_case "extra latency validated" `Quick test_extra_latency_validation;
          Alcotest.test_case "extra loss validated" `Quick test_extra_loss_validation;
        ] );
    ]
