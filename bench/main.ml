(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (Section 5) plus Bechamel microbenchmarks for the
   design choices DESIGN.md calls out.

   Usage:
     dune exec bench/main.exe              # every figure, then micro
     dune exec bench/main.exe -- fig5      # one artefact
     dune exec bench/main.exe -- micro     # microbenchmarks only
     dune exec bench/main.exe -- micro --json   # also write BENCH_micro.json
     dune exec bench/main.exe -- micro --check  # fast key-set guard vs BENCH_micro.json
     dune exec bench/main.exe -- chaos     # Jan 21 / Feb 6 incident replays
     dune exec bench/main.exe -- topogen [N] [SEED]  # dump a generated topology
     dune exec bench/main.exe -- compare A.exe B.exe [--workload W] [--pairs N]
                                   [--seconds S] [--seed N]  # alternating e2e pairs
   Artefacts: every id of Harness.Evidence.ids, plus micro. A figure's
   stdout is its Harness.Evidence table, byte-identical to
   test/golden/<id>/table.txt; its wall-clock timing line goes to stderr.
   `dune runtest` checks every golden file and `dune promote` refreshes
   them (test/dune). Every figure of the run shares one Harness.Evidence
   session, so figures of one dataset cost one experiment run. Library
   report functions append to a Buffer that Harness.Evidence renders into
   the table this driver prints. *)

let time_section name f =
  (* scion-lint: allow determinism -- wall-clock timing of the bench harness itself, not simulated time *)
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (* scion-lint: allow determinism -- wall-clock timing of the bench harness itself, not simulated time *)
  Printf.eprintf "[%s took %.1f s]\n%!" name (Unix.gettimeofday () -. t0);
  r

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
      ( "modp_mul_ns",
        Test.make ~name:"field multiply (Modp.mul)"
          (let felem s =
             match Scion_crypto.Modp.of_bytes (Scion_crypto.Sha256.digest s) with
             | Some x -> x
             | None -> failwith "digest not below p"
           in
           let a = felem "a" and b = felem "b" in
           Staged.stage (fun () -> ignore (Scion_crypto.Modp.mul a b))) );
      ( "schnorr_sign_ns",
        Test.make ~name:"schnorr sign (PCB entry)"
          (Staged.stage (fun () -> ignore (Scion_crypto.Schnorr.sign priv "msg"))) );
      ( "schnorr_verify_ns",
        (* Reuses one key, so after the first iteration its comb table is
           built and this times a warm verify. The table build is paid once
           per key, on its first verification. *)
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
      ( "schnorr_verify_batch8_keys_ns",
        (* The distinct-key case: one comb entry per key, where the
           single-key batch above merges its 8 into one. *)
        Test.make ~name:"schnorr verify_batch (8 sigs, 8 keys)"
          (let batch =
             List.init 8 (fun i ->
                 let priv, pub = Scion_crypto.Schnorr.derive ~seed:(Printf.sprintf "bench-%d" i) in
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
      ( "sigcache_hit_ns",
        (* A warm lookup: the verdict is cached by the first iteration. *)
        Test.make ~name:"sigcache verify (warm hit, 300 B message)"
          (let cache = Scion_controlplane.Sigcache.create () in
           let msg = String.make 300 'm' in
           let signature = Scion_crypto.Schnorr.sign priv msg in
           Staged.stage (fun () ->
               ignore (Scion_controlplane.Sigcache.verify cache pub ~msg ~signature))) );
      ( "pcb_verify_forged_ns",
        (* Steady-state cost of rejecting a forged beacon from a warm
           cache. After the first iteration every verdict is cached: the
           genuine prefix entries, the tampered entry's [false], and both
           certificate-chain signatures of every entry. So no Schnorr
           verification runs; each iteration pays the chain's non-signature
           checks, the one-pass signed-message encoding and the exact-key
           cache lookups. *)
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
          (let net = Sciera.Network.create ~per_origin:4 () in
           let mesh = Sciera.Network.mesh net in
           let src = ia "71-225" and dst = ia "71-2:0:5c" in
           ignore (Scion_controlplane.Mesh.paths mesh ~src ~dst);
           Staged.stage (fun () ->
               ignore (Scion_controlplane.Mesh.paths mesh ~src ~dst))) );
      ( "combine_cold_ns",
        (* One cold combinator call, averaged over 64 fixed AS pairs of a
           200-AS generated mesh: the segment lists are gathered once, the
           way Mesh.paths gathers them, and every call enumerates, merges,
           hashes, deduplicates and sorts from scratch. A leaf's down
           segments are its up segments after beaconing. *)
        Test.make ~name:"combinator build (cold, 200-AS topogen)"
          (let gen = Topogen.generate ~seed:0xBE7CL (Topogen.default ~n_ases:200) in
           let net =
             Sciera.Network.create ~topology:(Sciera.Topology.of_topogen gen) ~per_origin:2
               ~propagate_k:2 ~rounds:(Topogen.max_depth gen + 2) ()
           in
           let mesh = Sciera.Network.mesh net in
           let module M = Scion_controlplane.Mesh in
           let ases = Array.of_list (M.ases mesh) in
           let n = Array.length ases in
           let inputs =
             Array.init 64 (fun k ->
                 let src = ases.(k * 7 mod n) and dst = ases.(((k * 13) + 5) mod n) in
                 let src_core = M.is_core mesh src and dst_core = M.is_core mesh dst in
                 let ups = if src_core then [] else M.up_segments mesh src in
                 let downs = if dst_core then [] else M.up_segments mesh dst in
                 let sources =
                   if src_core then [ src ]
                   else
                     List.sort_uniq Scion_addr.Ia.compare
                       (List.map Scion_controlplane.Pcb.origin ups)
                 in
                 let cores = List.concat_map (M.core_segments_at mesh) sources in
                 (ups, cores, downs, src, dst, src_core, dst_core))
           in
           let next = ref 0 in
           Staged.stage (fun () ->
               let ups, cores, downs, src, dst, src_core, dst_core = inputs.(!next) in
               next := (!next + 1) mod Array.length inputs;
               ignore
                 (Scion_controlplane.Combinator.build ~ups ~cores ~downs ~src ~dst ~src_core
                    ~dst_core))) );
      ( "mesh_walk_1200b_ns",
        (* One warm walk of a fixed 5-hop SCIERA path (UVa to UFMS, the
           first path the memo returns) with a 1200 B payload: header and
           payload copied into a fresh buffer, five routers, one decode at
           delivery. *)
        Test.make ~name:"mesh walk (5 hops, 1200 B payload)"
          (let net = Sciera.Network.create ~per_origin:4 () in
           let mesh = Sciera.Network.mesh net in
           let now = Sciera.Network.now_unix net in
           let payload = String.make 1200 'x' in
           let fp =
             match Scion_controlplane.Mesh.paths mesh ~src:(ia "71-225") ~dst:(ia "71-2:0:5c") with
             | fp :: _ -> fp
             | [] -> failwith "bench: no path from 71-225 to 71-2:0:5c"
           in
           (match Scion_controlplane.Mesh.walk mesh ~now ~payload fp with
           | Scion_controlplane.Mesh.Walk_delivered _ -> ()
           | Scion_controlplane.Mesh.Walk_dropped _ -> failwith "bench: mesh walk dropped");
           Staged.stage (fun () -> ignore (Scion_controlplane.Mesh.walk mesh ~now ~payload fp))) );
      ( "ip_rtt_sample_ns",
        (* One ICMP sample of the BGP baseline on a pair whose overlay route
           and detour factor are already compiled: the Fig. 5-7 inner loop. *)
        Test.make ~name:"ip rtt sample (warm pair)"
          (let net = Sciera.Network.create ~per_origin:4 () in
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
      ( "traffic_churn_ns",
        (* What one flow arrival plus one departure costs the flow engine
           at ~200 active flows on a meshed topology: 200 long-lived flows
           on random walks over a 24-node ring with 24 chords, then per
           iteration one short flow offered and run to completion (two
           reallocations, the cost of an e2e flows op). Each iteration
           advances the clock 1 s; the long flows never drain, and each
           departure leaves one far-future timer queued, so the event heap
           grows by one entry per iteration. *)
        Test.make ~name:"traffic churn (arrival + departure, 200 flows)"
          (let rng = Scion_util.Rng.of_label 0xC4A7L "bench.traffic.churn" in
           let net = Netsim.Net.create ~rng in
           let n = 24 in
           let nodes = Array.init n (fun i -> Netsim.Net.add_node net (Printf.sprintf "m%d" i)) in
           let caps = [| 100.0e6; 100.0e6; 250.0e6; 40.0e6 |] in
           let add a b =
             let id = Netsim.Net.add_link net nodes.(a) nodes.(b) Netsim.Net.default_params in
             Netsim.Net.set_capacity net id
               ~bps:caps.(Scion_util.Rng.int rng (Array.length caps))
               ~queue_pkts:64;
             (id, a, b)
           in
           let links =
             Array.of_list
               (List.init n (fun i -> add i ((i + 1) mod n))
               @ List.init n (fun _ ->
                     let a = Scion_util.Rng.int rng n in
                     add a ((a + 1 + Scion_util.Rng.int rng (n - 1)) mod n)))
           in
           let walk () =
             let rec go node k acc =
               if k = 0 then List.rev acc
               else
                 let incident =
                   List.filter (fun (_, a, b) -> a = node || b = node) (Array.to_list links)
                 in
                 let id, a, b = List.nth incident (Scion_util.Rng.int rng (List.length incident)) in
                 go (if a = node then b else a) (k - 1)
                   ({ Traffic.Flow.link = id; from = nodes.(node) } :: acc)
             in
             go (Scion_util.Rng.int rng n) (2 + Scion_util.Rng.int rng 4) []
           in
           let engine = Netsim.Engine.create () in
           let flows = Traffic.Flow.create ~engine net in
           let population = 200 in
           let offer hops size_bytes =
             match Traffic.Flow.offer flows ~hops ~size_bytes with
             | `Started _ -> ()
             | `Rejected -> failwith "bench: traffic flow unexpectedly rejected"
           in
           let walks = Array.init population (fun _ -> walk ()) in
           Array.iter (fun hops -> offer hops 1.0e15) walks;
           let next = ref 0 in
           Staged.stage (fun () ->
               offer walks.(!next) 1000.0;
               next := (!next + 1) mod population;
               while Traffic.Flow.active_count flows > population do
                 Netsim.Engine.run ~until:(Netsim.Engine.now engine +. 1.0) engine
               done)) );
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
           let net = Sciera.Network.create ~per_origin:k () in
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
        Sciera.Network.create ~per_origin:8 ())
  in
  let src = Scion_addr.Ia.of_string "71-20965" (* GEANT *) in
  let dst = Scion_addr.Ia.of_string "71-225" (* UVa *) in
  let live () = List.length (Sciera.Network.live_paths net ~src ~dst) in
  let failures = ref 0 in
  let check name ok =
    if not ok then begin
      incr failures;
      Printf.printf "  FAIL %s\n%!" name
    end
  in
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
  if !failures > 0 then begin
    Printf.printf "\nchaos smoke: %d check(s) failed\n" !failures;
    exit 1
  end
  else
    Printf.printf "\nchaos smoke: all checks passed (%d live GEANT->UVa paths pre-replay)\n" before

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

(* --- Alternating e2e comparison ----------------------------------------------- *)

(* `main.exe compare A.exe B.exe [--workload W] [--pairs N] [--seconds S]
   [--seed N]`: run two builds of bench/e2e/main.exe (typically the parent
   commit's and a change's) in N alternating pairs, one child process at a
   time, A first in even pairs and B first in odd ones. For every
   end-to-end metric of BENCHMARK.json it prints each side's median and
   quartiles, the change of the medians, how many pairs B won, and whether
   the medians differ by more than A's interquartile range. It also checks
   that both sides print the same digest and pass-0 counts in every pair.
   Without --workload it compares every workload of BENCHMARK.json. *)

(* Quartiles as Python's statistics.quantiles(values, n=4) computes them
   (the default exclusive method), as bench/e2e does. *)
let quartiles values =
  let d = Array.of_list values in
  Array.sort compare d;
  let n = Array.length d in
  if n < 2 then (match values with v :: _ -> (v, v, v) | [] -> (0.0, 0.0, 0.0))
  else begin
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)
  end

type e2e_run = { metrics : (string * float) list; fingerprint : string list }

let run_e2e exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let output = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' output) in
  let module J = Telemetry.Json in
  match (status, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> (
      match J.parse last with
      | Ok j when J.member "correct" j = Some (J.Bool true) ->
          let metrics =
            match J.member "metrics" j with
            | Some (J.Obj fields) ->
                List.filter_map
                  (fun (name, v) -> Option.map (fun x -> (name, x)) (Option.bind (J.member "value" v) J.to_num_opt))
                  fields
            | Some _ | None -> []
          in
          { metrics; fingerprint =
              List.filter
                (fun l -> String.starts_with ~prefix:"digest " l || String.starts_with ~prefix:"counts " l)
                lines;
          }
      | Ok _ | Error _ ->
          print_string output;
          failwith (Printf.sprintf "compare: %s did not report a correct run" exe))
  | _ ->
      print_string output;
      failwith (Printf.sprintf "compare: %s failed" exe)

let compare_e2e rest =
  let module J = Telemetry.Json in
  let rec parse (exes, opts) = function
    | key :: value :: tl when String.starts_with ~prefix:"--" key -> parse (exes, (key, value) :: opts) tl
    | exe :: tl -> parse (exe :: exes, opts) tl
    | [] -> (List.rev exes, opts)
  in
  let exes, opts = parse ([], []) rest in
  let a, b =
    match exes with
    | [ a; b ] -> (a, b)
    | _ -> failwith "usage: main.exe compare A.exe B.exe [--workload W] [--pairs N] [--seconds S] [--seed N]"
  in
  let opt key default = Option.value ~default (List.assoc_opt key opts) in
  let pairs = int_of_string (opt "--pairs" "10") and seconds = opt "--seconds" "15" and seed = opt "--seed" "1" in
  let bench =
    match J.parse (read_file "BENCHMARK.json") with
    | Ok j -> j
    | Error e -> failwith ("compare: cannot parse BENCHMARK.json: " ^ e)
  in
  let entries key = match J.member key bench with Some (J.Arr l) -> l | Some _ | None -> [] in
  let str key j = Option.value ~default:"" (Option.bind (J.member key j) J.to_string_opt) in
  let end_to_end = List.map (fun m -> (str "name" m, str "better" m = "higher")) (entries "end_to_end") in
  let workloads =
    match List.assoc_opt "--workload" opts with
    | Some w -> [ w ]
    | None -> List.map (str "name") (entries "workloads")
  in
  List.iter
    (fun workload ->
      Printf.printf "== %s: %d pairs of %s s, seed %s ==\n%!" workload pairs seconds seed;
      let args = [ "--workload"; workload; "--seed"; seed; "--seconds"; seconds; "--trace"; "0" ] in
      let runs =
        List.init pairs (fun i ->
            let first, second = if i mod 2 = 0 then (a, b) else (b, a) in
            let r1 = run_e2e first args in
            let r2 = run_e2e second args in
            let ra, rb = if i mod 2 = 0 then (r1, r2) else (r2, r1) in
            let value r m = Option.value ~default:Float.nan (List.assoc_opt m r.metrics) in
            Printf.printf "  pair %2d:%s\n%!" (i + 1)
              (String.concat ""
                 (List.map (fun (m, _) -> Printf.sprintf "  %s %g -> %g" m (value ra m) (value rb m)) end_to_end));
            (ra, rb))
      in
      Printf.printf "  %-14s %-6s %-30s %-30s %8s %7s %s\n" "metric" "better" "A median [q1, q3]"
        "B median [q1, q3]" "change" "B wins" "|dmedian| > IQR(A)";
      List.iter
        (fun (m, higher) ->
          let side f = List.map (fun p -> Option.value ~default:Float.nan (List.assoc_opt m (f p).metrics)) runs in
          let va = side fst and vb = side snd in
          let q1a, meda, q3a = quartiles va and q1b, medb, q3b = quartiles vb in
          let wins = List.length (List.filter (fun (x, y) -> if higher then y > x else y < x) (List.combine va vb)) in
          Printf.printf "  %-14s %-6s %-30s %-30s %+7.1f%% %4d/%d %s\n" m
            (if higher then "higher" else "lower")
            (Printf.sprintf "%.6g [%.6g, %.6g]" meda q1a q3a)
            (Printf.sprintf "%.6g [%.6g, %.6g]" medb q1b q3b)
            (100.0 *. ((medb /. meda) -. 1.0))
            wins pairs
            (if Float.abs (medb -. meda) > q3a -. q1a then "yes" else "no"))
        end_to_end;
      let same = List.length (List.filter (fun (ra, rb) -> ra.fingerprint = rb.fingerprint) runs) in
      Printf.printf "  digest and pass-0 counts equal in %d/%d pairs\n\n%!" same pairs)
    workloads

(* --- Driver -------------------------------------------------------------- *)

(* A figure prints its Harness.Evidence table, so the output is its golden
   evidence. *)
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
  let args = List.filter (fun a -> not (List.mem a [ "--json"; "--check" ])) args in
  let session = Harness.Evidence.start () in
  match args with
  | [ "chaos" ] -> chaos ()
  | "compare" :: rest -> compare_e2e rest
  | "topogen" :: rest -> topogen_cli rest
  | [] -> List.iter (artefact session ~json ~check) (Harness.Evidence.ids @ [ "micro" ])
  | ids -> List.iter (artefact session ~json ~check) ids
