(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (Section 5) plus Bechamel microbenchmarks for the
   design choices DESIGN.md calls out.

   Usage:
     dune exec bench/main.exe              # every figure, then micro
     dune exec bench/main.exe -- fig5      # one artefact
     dune exec bench/main.exe -- fig5 --full    # one artefact at full scale
     dune exec bench/main.exe -- micro     # microbenchmarks only
     dune exec bench/main.exe -- micro --json   # also write BENCH_micro.json
     dune exec bench/main.exe -- micro --check  # fast key-set guard vs BENCH_micro.json
     dune exec bench/main.exe -- golden [--promote] [--full] [--dir DIR]
     dune exec bench/main.exe -- chaos     # Jan 21 / Feb 6 incident replays
     dune exec bench/main.exe -- pathmon-smoke  # quick adaptive-selection sanity run
     dune exec bench/main.exe -- scaling-smoke  # evidence-tier scaling sweep, 60 s budget
     dune exec bench/main.exe -- adversary-smoke  # reduced containment grid, defences on/off
     dune exec bench/main.exe -- load-smoke  # reduced load sweep, multipath vs single-path
     dune exec bench/main.exe -- topogen [N] [SEED]  # dump a generated topology
   Artefacts: every id of Harness.Evidence.ids, plus micro. A figure's
   stdout is its Harness.Evidence table, byte-identical to
   test/golden/<id>/table.txt (test/golden-full/<id>/table.txt under
   --full); its wall-clock timing line goes to stderr. --full starts the
   one Harness.Evidence session of the run at full scale instead of the
   evidence scale; every figure and golden command of the run shares that
   session. Library report functions append to a Buffer; this driver
   prints the buffer. *)

let time_section name f =
  (* scion-lint: allow determinism -- wall-clock timing of the bench harness itself, not simulated time *)
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (* scion-lint: allow determinism -- wall-clock timing of the bench harness itself, not simulated time *)
  Printf.eprintf "[%s took %.1f s]\n%!" name (Unix.gettimeofday () -. t0);
  r

(* Report functions in lib/ append to a buffer; a smoke prints it. *)
let print_report report =
  let b = Buffer.create 4096 in
  report b;
  Buffer.output_buffer stdout b

(* --- Microbenchmarks ----------------------------------------------------- *)

(* Stable machine-readable keys for BENCH_micro.json: one gauge per
   microbenchmark, value in ns/op. Downstream tooling diffs these names, so
   they must not change when the human-readable Bechamel titles do. *)
let micro_json_path = "BENCH_micro.json"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* `micro --check`: the bench-regression guard. Runs every microbenchmark
   under a tiny quota (so the guard is cheap enough to ride `dune runtest`)
   and then requires the produced gauge names to match the checked-in
   BENCH_micro.json key set exactly. A renamed or deleted benchmark shows
   up as a missing key; a new benchmark added without refreshing the
   baseline shows up as an extra key. Either way the fix is explicit:
   rename back, or refresh with `dune exec bench/main.exe -- micro --json`. *)
let micro_check_keys produced =
  let baseline_names =
    match Telemetry.Export.of_json (read_file micro_json_path) with
    | Ok samples -> List.map (fun s -> s.Telemetry.Metrics.sample_name) samples
    | Error e -> failwith (Printf.sprintf "bench check: cannot parse %s: %s" micro_json_path e)
  in
  let produced = List.sort_uniq compare produced in
  let baseline = List.sort_uniq compare baseline_names in
  let missing = List.filter (fun k -> not (List.mem k produced)) baseline in
  let extra = List.filter (fun k -> not (List.mem k baseline)) produced in
  List.iter
    (fun k -> Printf.printf "  MISSING %-40s (in %s but not produced)\n" k micro_json_path)
    missing;
  List.iter
    (fun k -> Printf.printf "  EXTRA   %-40s (produced but not in %s)\n" k micro_json_path)
    extra;
  if missing <> [] || extra <> [] then begin
    Printf.printf
      "\nbench check: key set drifted (%d missing, %d extra); refresh with `dune exec \
       bench/main.exe -- micro --json` or restore the renamed benchmark\n"
      (List.length missing) (List.length extra);
    exit 1
  end
  else Printf.printf "\nbench check: all %d benchmark keys match %s\n" (List.length baseline)
      micro_json_path

let micro ?(json = false) ?(check = false) () =
  let open Bechamel in
  let fwkey = Scion_dataplane.Fwkey.of_master_secret "bench" in
  let cmac = Scion_dataplane.Fwkey.cmac_key fwkey in
  let ts = 1_700_000_000l in
  let proto_hop =
    { Scion_dataplane.Path.exp_time = 255; cons_ingress = 3; cons_egress = 7; mac = String.make 6 '\x00' }
  in
  let hop =
    { proto_hop with
      Scion_dataplane.Path.mac = Scion_dataplane.Path.compute_mac cmac ~seg_id:7 ~timestamp:ts proto_hop
    }
  in
  let ia = Scion_addr.Ia.of_string in
  let router =
    Scion_dataplane.Router.create ~ia:(ia "71-10") ~key:fwkey
      ~ifaces:[ { Scion_dataplane.Router.ifid = 7; remote_ia = ia "71-11"; remote_ifid = 1 } ]
      ()
  in
  let sample_packet =
    let beta1 = Scion_dataplane.Path.chain_seg_id ~seg_id:7 ~mac:hop.Scion_dataplane.Path.mac in
    let last_proto =
      { Scion_dataplane.Path.exp_time = 255; cons_ingress = 1; cons_egress = 0; mac = String.make 6 '\x00' }
    in
    let last =
      { last_proto with
        Scion_dataplane.Path.mac =
          Scion_dataplane.Path.compute_mac cmac ~seg_id:beta1 ~timestamp:ts last_proto
      }
    in
    let seg =
      ( { Scion_dataplane.Path.cons_dir = true; peer = false; seg_id = 7; timestamp = ts },
        [ hop; last ] )
    in
    Scion_dataplane.Packet.make ~proto:Scion_dataplane.Packet.Udp
      ~src:(ia "71-10", Scion_dataplane.Packet.Ipv4 (Scion_addr.Ipv4.of_string "10.0.0.1"))
      ~dst:(ia "71-11", Scion_dataplane.Packet.Ipv4 (Scion_addr.Ipv4.of_string "10.0.0.2"))
      ~path:(Scion_dataplane.Packet.Standard (Scion_dataplane.Path.create [ seg ]))
      (String.make 1000 'x')
  in
  let encoded = Scion_dataplane.Packet.encode sample_packet in
  let priv, pub = Scion_crypto.Schnorr.derive ~seed:"bench" in
  let signature = Scion_crypto.Schnorr.sign priv "msg" in
  let dispatcher = Scion_endhost.Dispatcher.create () in
  (match Scion_endhost.Dispatcher.register dispatcher ~port:40001 ~app:"bench" with
  | Ok () -> ()
  | Error e -> failwith e);
  let direct = Scion_endhost.Dispatcher.Direct.open_socket ~port:40001 in
  let payload = String.make 1000 'p' in
  let tests =
    [
      ( "hop_field_mac_ns",
        Test.make ~name:"hop-field MAC (AES-CMAC)"
          (Staged.stage (fun () ->
               ignore (Scion_dataplane.Path.compute_mac cmac ~seg_id:7 ~timestamp:ts hop))) );
      ( "border_router_forward_view_ns",
        Test.make ~name:"border-router forward (zero-copy view)"
          (Staged.stage (fun () ->
               let v = Scion_dataplane.Packet.View.of_string encoded in
               ignore
                 (Scion_dataplane.Router.process_view router ~now:(Int32.to_float ts) ~ingress:0 v))) );
      ( "packet_encode_ns",
        Test.make ~name:"packet encode"
          (Staged.stage (fun () -> ignore (Scion_dataplane.Packet.encode sample_packet))) );
      ( "packet_decode_ns",
        Test.make ~name:"packet decode"
          (Staged.stage (fun () -> ignore (Scion_dataplane.Packet.decode encoded))) );
      ( "schnorr_sign_ns",
        Test.make ~name:"schnorr sign (PCB entry)"
          (Staged.stage (fun () -> ignore (Scion_crypto.Schnorr.sign priv "msg"))) );
      ( "schnorr_verify_ns",
        Test.make ~name:"schnorr verify (PCB entry)"
          (Staged.stage (fun () -> ignore (Scion_crypto.Schnorr.verify pub ~msg:"msg" ~signature))) );
      ( "schnorr_verify_batch8_ns",
        Test.make ~name:"schnorr verify_batch (8 sigs, whole batch)"
          (let batch =
             List.init 8 (fun i ->
                 let msg = Printf.sprintf "msg-%d" i in
                 (pub, msg, Scion_crypto.Schnorr.sign priv msg))
           in
           Staged.stage (fun () -> ignore (Scion_crypto.Schnorr.verify_batch batch))) );
      ( "dispatcher_demux_ns",
        Test.make ~name:"dispatcher demux (shared port)"
          (Staged.stage (fun () ->
               ignore (Scion_endhost.Dispatcher.dispatch dispatcher ~dst_port:40001 ~payload))) );
      ( "dispatcherless_delivery_ns",
        Test.make ~name:"dispatcherless delivery"
          (Staged.stage (fun () ->
               ignore (Scion_endhost.Dispatcher.Direct.deliver direct ~payload))) );
      ( "sha256_1kib_ns",
        Test.make ~name:"sha256 (1 KiB)"
          (Staged.stage (fun () -> ignore (Scion_crypto.Sha256.digest payload))) );
      ( "estimator_observe_ns",
        Test.make ~name:"pathmon estimator observe (EWMA+window)"
          (let est = Pathmon.Estimator.create () in
           let rng = Scion_util.Rng.of_label 0xBE7CL "bench.estimator" in
           Staged.stage (fun () ->
               Pathmon.Estimator.observe est (`Rtt (20.0 +. Scion_util.Rng.float rng 10.0)))) );
      ( "prober_tick_ns",
        Test.make ~name:"pathmon prober tick (8 paths due)"
          (let rng = Scion_util.Rng.of_label 0xBE7CL "bench.prober" in
           let sample = Scion_util.Rng.of_label 0xBE7CL "bench.prober.sample" in
           let pr =
             Pathmon.Prober.create ~interval_ms:50.0 ~rng
               ~probe:(fun ~fingerprint:_ ->
                 if Scion_util.Rng.float sample 1.0 < 0.05 then `Lost
                 else `Rtt (20.0 +. Scion_util.Rng.float sample 10.0))
               ()
           in
           for i = 1 to 8 do
             Pathmon.Prober.watch pr
               ~fingerprint:(Printf.sprintf "bench-path-%d" i)
               ~estimator:(Pathmon.Estimator.create ())
           done;
           let now = ref 0.0 in
           Staged.stage (fun () ->
               (* One second per tick: every watched path is due again. *)
               now := !now +. 1.0;
               ignore (Pathmon.Prober.tick pr ~now_s:!now))) );
      ( "selector_choose_ns",
        Test.make ~name:"pathmon selector choose (8 candidates)"
          (let rng = Scion_util.Rng.of_label 0xBE7CL "bench.selector" in
           let candidates =
             List.init 8 (fun i ->
                 let est = Pathmon.Estimator.create () in
                 for _ = 1 to 16 do
                   Pathmon.Estimator.observe est
                     (`Rtt (20.0 +. (float_of_int i *. 5.0) +. Scion_util.Rng.float rng 10.0))
                 done;
                 {
                   Pathmon.Selector.fingerprint = Printf.sprintf "bench-path-%d" i;
                   static_ms = 20.0 +. (float_of_int i *. 5.0);
                   estimator = Some est;
                 })
           in
           let sel = Pathmon.Selector.create () in
           Staged.stage (fun () ->
               ignore (Pathmon.Selector.choose sel ~candidates ~active:"bench-path-0"))) );
      ( "lightningfilter_check_ns",
        (* Repeats the same packet at a fixed [now]: after the first
           iteration the tag is a windowed duplicate, so this measures the
           replay-suppressed admission path (no payload hash). *)
        Test.make ~name:"lightningfilter check (replay-suppressed)"
          (let filter =
             Sciera.Science_dmz.Filter.create ~local_secret:"s"
               ~allowed:[ (ia "71-88", 1e9) ]
               ()
           in
           let key = Sciera.Science_dmz.Filter.host_key filter ~peer:(ia "71-88") in
           let tag = Sciera.Science_dmz.Filter.authenticate ~key ~payload in
           Staged.stage (fun () ->
               ignore
                 (Sciera.Science_dmz.Filter.check filter ~now:0.0 ~src:(ia "71-88") ~payload ~tag)))
      );
      ( "lightningfilter_verify_ns",
        (* Advances [now] one dedup window per iteration, so every check
           lands in a fresh window and pays the full CMAC over the 1 KiB
           payload — the pre-dedup cost of lightningfilter_check_ns. *)
        Test.make ~name:"lightningfilter check (fresh window, full MAC)"
          (let filter =
             Sciera.Science_dmz.Filter.create ~local_secret:"s"
               ~allowed:[ (ia "71-88", 1e9) ]
               ()
           in
           let key = Sciera.Science_dmz.Filter.host_key filter ~peer:(ia "71-88") in
           let tag = Sciera.Science_dmz.Filter.authenticate ~key ~payload in
           let now = ref 0.0 in
           Staged.stage (fun () ->
               now := !now +. 1.0;
               ignore
                 (Sciera.Science_dmz.Filter.check filter ~now:!now ~src:(ia "71-88") ~payload ~tag)))
      );
      ( "adversary_flood_check_ns",
        (* Advances [now] one dedup window per iteration so every batch is
           admitted fresh: the cost of a volumetric burst (30% in-batch
           replays) hitting the LightningFilter's batched admission. *)
        Test.make ~name:"lightningfilter check_batch (32-frame flood, 30% dup)"
          (let filter =
             Sciera.Science_dmz.Filter.create ~local_secret:"s"
               ~allowed:[ (ia "71-88", 1e9) ]
               ()
           in
           let key = Sciera.Science_dmz.Filter.host_key filter ~peer:(ia "71-88") in
           let frames =
             List.init 32 (fun i ->
                 let payload = Printf.sprintf "flood-%04d" (if i mod 10 < 3 then 0 else i) in
                 (ia "71-88", payload, Sciera.Science_dmz.Filter.authenticate ~key ~payload))
           in
           let now = ref 0.0 in
           Staged.stage (fun () ->
               now := !now +. 1.0;
               ignore (Sciera.Science_dmz.Filter.check_batch filter ~now:!now frames))) );
      ( "pcb_verify_forged_ns",
        (* Steady-state cost of rejecting a forged beacon from a warm
           cache. After the first iteration every verdict is cached: the
           genuine prefix entries, the tampered entry's [false], and both
           certificate-chain signatures of every entry. So no Schnorr
           verification runs; each iteration pays the chain's non-signature
           checks, the signed-message rebuild and the cache-key hashing. *)
        Test.make ~name:"pcb verify (forged entry, cached prefix)"
          (let net = Sciera.Network.create () in
           let mesh = Sciera.Network.mesh net in
           let forged =
             let leaf =
               match
                 List.filter
                   (fun ia -> not (Scion_controlplane.Mesh.is_core mesh ia))
                   (Scion_controlplane.Mesh.ases mesh)
               with
               | ia :: _ -> ia
               | [] -> failwith "no leaf AS"
             in
             match Scion_controlplane.Mesh.up_segments mesh leaf with
             | [] -> failwith "no up segments"
             | pcb :: _ -> (
                 match List.rev pcb.Scion_controlplane.Pcb.entries with
                 | last :: prefix ->
                     {
                       pcb with
                       Scion_controlplane.Pcb.entries =
                         List.rev
                           ({ last with Scion_controlplane.Pcb.mtu = last.Scion_controlplane.Pcb.mtu + 1 }
                           :: prefix);
                     }
                 | [] -> pcb)
           in
           let cache = Scion_controlplane.Sigcache.create () in
           let lookup = Scion_controlplane.Mesh.cert_material mesh in
           let now_mesh = Sciera.Network.now_unix net in
           Staged.stage (fun () ->
               (* A tampered last entry must fail verification; the bench
                  measures the rejecting verify over the cached prefix. *)
               match Scion_controlplane.Pcb.verify forged ~cache ~lookup ~now:now_mesh with
               | Ok () -> failwith "forged PCB unexpectedly verified"
               | Error _ -> ())) );
      ( "topogen_1000_ns",
        Test.make ~name:"topogen generate (1000 ASes)"
          (Staged.stage (fun () ->
               ignore (Topogen.generate ~seed:0xBE7CL (Topogen.default ~n_ases:1000)))) );
      ( "net_dijkstra_1000_ns",
        Test.make ~name:"net dijkstra (1000-node topogen fabric)"
          (let gen = Topogen.generate ~seed:0xBE7CL (Topogen.default ~n_ases:1000) in
           let rng = Scion_util.Rng.of_label 0xBE7CL "bench.net" in
           let net = Netsim.Net.create ~rng in
           let node_of =
             let tbl = Hashtbl.create 1024 in
             List.iter
               (fun (a : Topogen.as_info) ->
                 Hashtbl.replace tbl a.Topogen.ia
                   (Netsim.Net.add_node net (Scion_addr.Ia.to_string a.Topogen.ia)))
               gen.Topogen.ases;
             fun ia ->
               match Hashtbl.find_opt tbl ia with
               | Some n -> n
               | None -> invalid_arg "bench: topogen link endpoint outside the AS set"
           in
           List.iter
             (fun (l : Topogen.link_info) ->
               ignore
                 (Netsim.Net.add_link net (node_of l.Topogen.a) (node_of l.Topogen.b)
                    { Netsim.Net.default_params with latency_ms = l.Topogen.latency_ms }))
             gen.Topogen.links;
           let src, dst =
             match (gen.Topogen.ases, List.rev gen.Topogen.ases) with
             | first :: _, last :: _ -> (node_of first.Topogen.ia, node_of last.Topogen.ia)
             | _ -> invalid_arg "bench: empty topogen topology"
           in
           Staged.stage (fun () -> ignore (Netsim.Net.dijkstra net ~src ~dst))) );
      ( "combine_memo_ns",
        Test.make ~name:"mesh paths (combinator memo hit)"
          (let net = Sciera.Network.create ~per_origin:4 ~verify_pcbs:false () in
           let mesh = Sciera.Network.mesh net in
           let src = ia "71-225" and dst = ia "71-2:0:5c" in
           ignore (Scion_controlplane.Mesh.paths mesh ~src ~dst);
           Staged.stage (fun () ->
               ignore (Scion_controlplane.Mesh.paths mesh ~src ~dst))) );
      ( "ip_rtt_sample_ns",
        (* One ICMP sample of the BGP baseline on a pair whose overlay route
           and detour factor are already compiled: the Fig. 5-7 inner loop. *)
        Test.make ~name:"ip rtt sample (warm pair)"
          (let net = Sciera.Network.create ~per_origin:4 ~verify_pcbs:false () in
           let src = ia "71-225" and dst = ia "71-2:0:5c" in
           ignore (Sciera.Network.ip_rtt_sample net ~src ~dst);
           Staged.stage (fun () -> ignore (Sciera.Network.ip_rtt_sample net ~src ~dst))) );
      ( "traffic_fair_share_ns",
        (* Steady-state reallocation cost: 64 long-lived fluid flows over a
           10-node capacity-armed chain, one full max-min recompute per
           iteration (the work every arrival/departure pays). *)
        Test.make ~name:"traffic max-min recompute (64 flows, 10-node chain)"
          (let rng = Scion_util.Rng.of_label 0xBE7CL "bench.traffic" in
           let net = Netsim.Net.create ~rng in
           let nodes = Array.init 10 (fun i -> Netsim.Net.add_node net (Printf.sprintf "n%d" i)) in
           let links =
             Array.init 9 (fun i ->
                 let id =
                   Netsim.Net.add_link net nodes.(i) nodes.(i + 1) Netsim.Net.default_params
                 in
                 Netsim.Net.set_capacity net id ~bps:100.0e6 ~queue_pkts:64;
                 id)
           in
           let engine = Netsim.Engine.create () in
           let flows = Traffic.Flow.create ~engine net in
           for f = 0 to 63 do
             let first = f mod 6 in
             let hops =
               List.init 3 (fun k ->
                   { Traffic.Flow.link = links.(first + k); from = nodes.(first + k) })
             in
             (* Effectively infinite sizes: the population never drains, so
                every iteration recomputes the same 64-flow allocation. *)
             match Traffic.Flow.offer flows ~hops ~size_bytes:1.0e12 with
             | `Started _ -> ()
             | `Rejected -> failwith "bench: traffic flow unexpectedly rejected"
           done;
           Staged.stage (fun () -> Traffic.Flow.recompute_now flows)) );
      ( "workload_arrivals_ns",
        (* Cost of generating one 5 s open-loop arrival window (Poisson
           thinning + Pareto sizes + weighted PoP picks), engine included. *)
        Test.make ~name:"traffic workload window (5 s, 30 flows/s)"
          (let pops =
             List.init 8 (fun i ->
                 {
                   Traffic.Workload.name = Printf.sprintf "pop%d" i;
                   weight = 1.0 +. float_of_int (i mod 3);
                   phase_h = float_of_int i;
                 })
           in
           let config = Traffic.Workload.make_config ~base_rate_per_s:30.0 () in
           let counter = ref 0L in
           Staged.stage (fun () ->
               counter := Int64.add !counter 1L;
               let engine = Netsim.Engine.create () in
               let rng = Scion_util.Rng.of_label !counter "bench.workload" in
               let wl =
                 Traffic.Workload.attach ~engine ~rng ~config ~pops ~duration_s:5.0
                   ~sink:(fun ~now:_ ~src:_ ~dst:_ ~size_bytes:_ -> ())
                   ()
               in
               Netsim.Engine.run engine;
               ignore (Traffic.Workload.arrivals wl))) );
      ( "lint_full_tree_ns",
        Test.make ~name:"scion-lint full-tree analysis (2-phase)"
          (let lint_dirs =
             List.filter Sys.file_exists Scion_lint_lib.Driver.default_dirs
           in
           Staged.stage (fun () ->
               ignore
                 (Scion_lint_lib.Driver.analyze ~rules:Scion_lint_lib.Lint_rules.rules ~root:"."
                    ~dirs:lint_dirs ()))) );
    ]
  in
  Printf.printf "== Microbenchmarks (Bechamel) ==\n%!";
  let benchmark test =
    (* Check mode only cares that every benchmark still runs and keeps its
       key, so it trades statistical quality for wall-clock time. *)
    let cfg =
      if check then Benchmark.cfg ~limit:10 ~quota:(Time.second 0.01) ()
      else Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ()
    in
    Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let registry = Telemetry.Metrics.create () in
  List.iter
    (fun (slug, test) ->
      let g = Telemetry.Metrics.gauge registry slug in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock (benchmark test) in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some (ns :: _) ->
              Telemetry.Metrics.set g ns;
              Printf.printf "  %-42s %10.0f ns/op  (%9.1f Kops/s)\n%!" name ns (1e6 /. ns)
          | Some [] | None -> Printf.printf "  %-42s (no estimate)\n%!" name)
        results)
    tests;
  if json then begin
    Telemetry.Export.write_file micro_json_path (Telemetry.Export.to_json registry);
    Printf.printf "\n  wrote %s (%d metrics)\n%!" micro_json_path
      (Telemetry.Metrics.size registry)
  end;
  (* The ablation tables below are not part of the key guard. *)
  if check then micro_check_keys (List.map fst tests)
  else begin
  (* The Section 4.8 ablation: dispatcher vs dispatcherless throughput under
     the RSS scaling model. *)
  Printf.printf "\n== Ablation: dispatcher vs dispatcherless (Section 4.8) ==\n";
  print_string (Scion_util.Table.render
    ~header:[ "cores"; "dispatcher pps"; "dispatcherless pps"; "speedup" ]
    ~rows:
      (List.map
         (fun cores ->
           let d =
             Scion_endhost.Dispatcher.model_throughput ~mode:`Dispatcher ~cores
               ~per_packet_us:1.2 ~dispatcher_overhead_us:2.1
           in
           let dl =
             Scion_endhost.Dispatcher.model_throughput ~mode:`Dispatcherless ~cores
               ~per_packet_us:1.2 ~dispatcher_overhead_us:2.1
           in
           [
             string_of_int cores;
             Printf.sprintf "%.0f" d;
             Printf.sprintf "%.0f" dl;
             Printf.sprintf "%.1fx" (dl /. d);
           ])
         [ 1; 4; 8; 16 ]));
  (* The beacon-store k ablation: control-plane state vs path diversity. *)
  Printf.printf "\n== Ablation: beacon-store size vs path diversity ==\n%!";
  print_string (Scion_util.Table.render
    ~header:[ "per_origin"; "UVa->UFMS paths"; "convergence (s)" ]
    ~rows:
      (List.map
         (fun k ->
           (* scion-lint: allow determinism -- wall-clock timing of the bench harness itself, not simulated time *)
           let t0 = Unix.gettimeofday () in
           let net = Sciera.Network.create ~per_origin:k ~verify_pcbs:false () in
           (* scion-lint: allow determinism -- wall-clock timing of the bench harness itself, not simulated time *)
           let dt = Unix.gettimeofday () -. t0 in
           let n =
             List.length
               (Sciera.Network.paths net
                  ~src:(Scion_addr.Ia.of_string "71-225")
                  ~dst:(Scion_addr.Ia.of_string "71-2:0:5c"))
           in
           [ string_of_int k; string_of_int n; Printf.sprintf "%.1f" dt ])
         [ 4; 8; 16; 24 ]));
  print_newline ()
  end

(* --- Golden evidence ----------------------------------------------------- *)

(* `main.exe golden [--promote] [--full] [--dir DIR]`: check (default) or
   refresh the checked-in per-figure evidence under test/golden/. Checking
   exits non-zero and prints unified diffs when any golden is stale;
   promoting rewrites only the files that changed. Under `--full` the
   golden directory defaults to test/golden-full (the opt-in @golden-full
   tier). *)
let golden session ~full rest =
  let rec dir_of = function
    | "--dir" :: d :: _ -> d
    | _ :: tl -> dir_of tl
    | [] -> Filename.concat "test" (if full then "golden-full" else "golden")
  in
  let dir = dir_of rest in
  if List.mem "--promote" rest then begin
    let results = Harness.Golden.promote session ~dir in
    List.iter
      (fun (path, status) ->
        Printf.printf "%-9s %s\n" (Harness.Golden.status_to_string status) path)
      results;
    let count st = List.length (List.filter (fun (_, s) -> s = st) results) in
    Printf.printf "\n%d created, %d updated, %d unchanged\n"
      (count Harness.Golden.Created) (count Harness.Golden.Updated)
      (count Harness.Golden.Unchanged)
  end
  else begin
    let files =
      List.concat_map (Harness.Golden.check_figure session ~dir) Harness.Evidence.ids
    in
    let stale = Harness.Golden.stale files in
    List.iter
      (fun (f : Harness.Golden.file) ->
        Printf.printf "%-5s %s\n" (if Option.is_some f.diff then "STALE" else "ok") f.path)
      files;
    List.iter
      (fun (f : Harness.Golden.file) ->
        match f.diff with
        | Some d -> Printf.printf "\n--- stale: %s ---\n%s" f.path d
        | None -> ())
      stale;
    if stale <> [] then begin
      Printf.printf
        "\n%d of %d golden files stale; refresh with `dune exec bench/main.exe -- golden --promote`\n"
        (List.length stale) (List.length files);
      exit 1
    end
    else Printf.printf "\nall %d golden files match\n" (List.length files)
  end

(* --- Smoke checks ------------------------------------------------------------ *)

(* [check name ok] prints a FAIL line for each failed check as it runs;
   [verdict ?failed passed] closes the smoke with "<smoke> smoke: N
   check(s) failed" plus [failed] and exit 1, or "all checks passed" plus
   [passed]. *)
let smoke_checks smoke =
  let failures = ref 0 in
  let check name ok =
    if not ok then begin
      incr failures;
      Printf.printf "  FAIL %s\n%!" name
    end
  in
  let verdict ?(failed = "") passed =
    if !failures > 0 then begin
      Printf.printf "\n%s smoke: %d check(s) failed%s\n" smoke !failures failed;
      exit 1
    end
    else Printf.printf "\n%s smoke: all checks passed%s\n" smoke passed
  in
  (check, verdict)

(* --- Chaos smoke --------------------------------------------------------- *)

(* `main.exe chaos`: replay the canned Jan 21 and Feb 6 incident scenarios
   through the fault injector against a live network and verify the stack
   self-heals: every scheduled op fires, the control plane stays up, and
   end-to-end delivery is back once the replay drains (every outage ends
   with a repair, which re-originates beacons). Exits non-zero on any
   failed check. *)
let chaos () =
  Printf.printf "== Chaos smoke: canned incident replays ==\n%!";
  let net =
    time_section "network build" (fun () ->
        Sciera.Network.create ~per_origin:8 ~verify_pcbs:false ())
  in
  let src = Scion_addr.Ia.of_string "71-20965" (* GEANT *) in
  let dst = Scion_addr.Ia.of_string "71-225" (* UVa *) in
  let live () = List.length (Sciera.Network.live_paths net ~src ~dst) in
  let check, verdict = smoke_checks "chaos" in
  let before = live () in
  check "delivery before replay" (before > 0);
  List.iter
    (fun (name, scenario) ->
      let engine = Netsim.Engine.create () in
      let rng = Scion_util.Rng.of_label 0xC4A05L "fault" in
      let inj = Sciera.Network.inject net ~engine ~rng scenario in
      let total = List.length (Fault.Injector.events inj) in
      time_section (name ^ " replay") (fun () -> Netsim.Engine.run engine);
      let after = live () in
      Printf.printf "  %-6s %d/%d events fired, %d live paths after replay\n%!" name
        (Fault.Injector.fired inj) total after;
      check (name ^ ": all events fired") (Fault.Injector.fired inj = total && total > 0);
      check (name ^ ": control plane up")
        (Fault.Scenario.control_up (Fault.Injector.events inj));
      check (name ^ ": delivery recovered") (after > 0))
    [ ("jan21", Sciera.Incidents.jan21); ("feb6", Sciera.Incidents.feb6) ];
  verdict (Printf.sprintf " (%d live GEANT->UVa paths pre-replay)" before)

(* --- Pathmon smoke -------------------------------------------------------- *)

(* `main.exe pathmon-smoke`: a reduced-trial run of the pathmon experiment
   asserting the headline property — adaptive selection strictly reduces
   median time-in-degraded-path vs static — without paying for the full
   golden figure. Wired into `dune build @pathmon`. *)
let pathmon_smoke () =
  Printf.printf "== Pathmon smoke: adaptive vs static under soft degradation ==\n%!";
  let r =
    time_section "pathmon smoke (4 trials)" (fun () -> Sciera.Exp_pathmon.run ~trials:4 ())
  in
  print_report (fun b -> Sciera.Exp_pathmon.print_pathmon b r);
  let a = r.Sciera.Exp_pathmon.adaptive and s = r.Sciera.Exp_pathmon.static_ in
  if a.Sciera.Exp_pathmon.median_degraded_s < s.Sciera.Exp_pathmon.median_degraded_s then
    Printf.printf "pathmon smoke: ok (adaptive %.2f s < static %.2f s median degraded)\n"
      a.Sciera.Exp_pathmon.median_degraded_s s.Sciera.Exp_pathmon.median_degraded_s
  else begin
    Printf.printf
      "pathmon smoke: FAIL — adaptive median degraded %.2f s is not below static %.2f s\n"
      a.Sciera.Exp_pathmon.median_degraded_s s.Sciera.Exp_pathmon.median_degraded_s;
    exit 1
  end

(* --- Scaling smoke -------------------------------------------------------- *)

(* `main.exe scaling-smoke`: the evidence-tier scaling sweep (synthetic
   Topogen meshes at 100/300/1000 ASes next to the 29-AS baseline) under a
   wall-clock budget. The figure itself is fully deterministic and never
   reads the clock (the lint forbids it in lib/), so the < 60 s bound on
   the N=1000 sweep is enforced here, in the driver. Wired into
   `dune build @scaling`. *)
let scaling_smoke () =
  Printf.printf "== Scaling smoke: topogen sweep under the 60 s budget ==\n%!";
  (* scion-lint: allow determinism -- wall-clock timing of the bench harness itself, not simulated time *)
  let t0 = Unix.gettimeofday () in
  let r = Sciera.Exp_scaling.run ~sizes:[ 100; 300; 1000 ] () in
  (* scion-lint: allow determinism -- wall-clock timing of the bench harness itself, not simulated time *)
  let dt = Unix.gettimeofday () -. t0 in
  print_report (fun b -> Sciera.Exp_scaling.print_scaling b r);
  let check, verdict = smoke_checks "scaling" in
  List.iter
    (fun (w : Sciera.Exp_scaling.row) ->
      check
        (Printf.sprintf "%s: control-plane reachability" w.Sciera.Exp_scaling.label)
        (w.Sciera.Exp_scaling.reachable_pct > 90.0);
      check
        (Printf.sprintf "%s: packet delivery" w.Sciera.Exp_scaling.label)
        (w.Sciera.Exp_scaling.delivered_pct > 80.0))
    r.Sciera.Exp_scaling.rows;
  check "sweep under 60 s wall clock" (dt < 60.0);
  let took = Printf.sprintf " (sweep took %.1f s)" dt in
  verdict ~failed:took took

(* --- Adversary smoke ------------------------------------------------------ *)

(* `main.exe adversary-smoke`: the containment grid with the generated
   mesh reduced to 60 ASes, asserting the headline property — at least
   four attack classes end with a strictly smaller blast radius AND
   strictly faster containment when the defences are armed — without
   paying for the golden figure's 300-AS scale. Wired into
   `dune build @adversary`. *)
let adversary_smoke () =
  Printf.printf "== Adversary smoke: containment grid at reduced scale ==\n%!";
  let r =
    time_section "adversary smoke (topogen-60)" (fun () ->
        Sciera.Exp_adversary.run ~topogen_ases:60 ())
  in
  print_report (fun b -> Sciera.Exp_adversary.print_containment b r);
  let n = r.Sciera.Exp_adversary.classes_contained in
  if n >= 4 then Printf.printf "adversary smoke: ok (%d/8 classes strictly contained)\n" n
  else begin
    Printf.printf "adversary smoke: FAIL — only %d/8 classes strictly contained (need >= 4)\n" n;
    exit 1
  end

(* --- Load smoke ------------------------------------------------------------ *)

(* `main.exe load-smoke`: a reduced sweep of the traffic-engine figure —
   two load points, short cells, the generated mesh shrunk to 60 ASes —
   asserting the headline property: at the top load, multipath flow
   placement carries at least as much goodput as the single-path baseline
   without a worse p99 FCT, and conservation holds per cell (goodput never
   exceeds offered). Wired into `dune build @load`. *)
let load_smoke () =
  Printf.printf "== Load smoke: reduced sweep, multipath vs single-path ==\n%!";
  let r =
    time_section "load smoke (2 points, topogen-60)" (fun () ->
        Sciera.Exp_load.run ~loads:[ 0.5; 1.5 ] ~duration_s:10.0 ~topogen_ases:60 ())
  in
  print_report (fun b -> Sciera.Exp_load.print_load b r);
  let check, verdict = smoke_checks "load" in
  List.iter
    (fun (c : Sciera.Exp_load.cell) ->
      check
        (Printf.sprintf "%s/%s/%.2g: goodput <= offered" c.Sciera.Exp_load.c_scale
           (Sciera.Exp_load.arm_name c.Sciera.Exp_load.c_arm)
           c.Sciera.Exp_load.c_load)
        (c.Sciera.Exp_load.c_goodput_mbps <= c.Sciera.Exp_load.c_offered_mbps +. 1e-6);
      check
        (Printf.sprintf "%s/%s/%.2g: flows completed" c.Sciera.Exp_load.c_scale
           (Sciera.Exp_load.arm_name c.Sciera.Exp_load.c_arm)
           c.Sciera.Exp_load.c_load)
        (c.Sciera.Exp_load.c_completed > 0))
    r.Sciera.Exp_load.cells;
  check "multipath goodput >= single-path at top load" (r.Sciera.Exp_load.mp_goodput_gain >= 1.0);
  (* The p99 direction is load-dependent (multipath admits more flows, so
     its completed population can include slower transfers), so only pin
     that the ratio is a sane positive number. *)
  check "p99 FCT ratio is finite and positive"
    (Float.is_finite r.Sciera.Exp_load.mp_p99_fct_ratio
    && r.Sciera.Exp_load.mp_p99_fct_ratio > 0.0);
  verdict
    (Printf.sprintf " (mp %.2fx goodput, sp/mp p99 ratio %.2f)" r.Sciera.Exp_load.mp_goodput_gain
       r.Sciera.Exp_load.mp_p99_fct_ratio)

(* --- Topogen dump ---------------------------------------------------------- *)

(* `main.exe topogen [N] [SEED]`: generate a synthetic topology and print
   its canonical dump (the byte-identity witness of the property tests)
   plus a summary line. *)
let topogen_cli rest =
  let n = match rest with n :: _ -> int_of_string n | [] -> 100 in
  let seed = match rest with _ :: s :: _ -> Int64.of_string s | _ -> 0x5CA1_AB1EL in
  let gen = Topogen.generate ~seed (Topogen.default ~n_ases:n) in
  print_string (Topogen.to_string gen);
  Printf.printf "%d ASes (%d core), %d links, max leaf depth %d (seed 0x%Lx)\n"
    (List.length gen.Topogen.ases) (Topogen.core_count gen)
    (List.length gen.Topogen.links) (Topogen.max_depth gen) seed

(* --- Driver -------------------------------------------------------------- *)

(* A figure prints its Harness.Evidence table, so the output is the golden
   evidence of the session's scale. *)
let artefact session ~json ~check = function
  | "micro" -> micro ~json ~check ()
  | id when List.mem id Harness.Evidence.ids ->
      let e = time_section id (fun () -> Harness.Evidence.run session id) in
      Printf.printf "%s%!" e.Harness.Evidence.table
  | other ->
      Printf.eprintf "unknown artefact %S\n" other;
      exit 1

let () =
  let args = match Array.to_list Sys.argv with [] -> [] | _exe :: rest -> rest in
  let json = List.mem "--json" args in
  let check = List.mem "--check" args in
  let full = List.mem "--full" args in
  let args = List.filter (fun a -> not (List.mem a [ "--json"; "--check"; "--full" ])) args in
  let session = Harness.Evidence.start ~full in
  match args with
  | "golden" :: rest -> golden session ~full rest
  | [ "chaos" ] -> chaos ()
  | [ "pathmon-smoke" ] -> pathmon_smoke ()
  | [ "scaling-smoke" ] -> scaling_smoke ()
  | [ "adversary-smoke" ] -> adversary_smoke ()
  | [ "load-smoke" ] -> load_smoke ()
  | "topogen" :: rest -> topogen_cli rest
  | [] -> List.iter (artefact session ~json ~check) (Harness.Evidence.ids @ [ "micro" ])
  | ids -> List.iter (artefact session ~json ~check) ids
