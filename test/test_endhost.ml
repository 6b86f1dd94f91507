open Scion_endhost
module Ia = Scion_addr.Ia
module Schnorr = Scion_crypto.Schnorr

(* --- Hints / Table 2 --- *)

let env ?(static = false) ?(dhcp = false) ?(dhcpv6 = false) ?(ras = false) ?(dns = false) () =
  { Hints.static_ips_only = static; dhcp; dhcpv6; ipv6_ras = ras; dns_search_domain = dns }

let test_hints_table2 () =
  let check m e expect =
    Alcotest.(check string) (Hints.name m)
      expect
      (match Hints.available m e with
      | Hints.Available -> "Y"
      | Hints.Combined -> "M"
      | Hints.Not_applicable -> "N")
  in
  (* DHCP column *)
  let dhcp = env ~dhcp:true () in
  check Hints.Dhcp_vivo dhcp "Y";
  check Hints.Dhcpv6_vsio dhcp "N";
  check Hints.Dns_srv dhcp "M";
  check Hints.Mdns dhcp "M";
  (* static column *)
  let static = env ~static:true () in
  check Hints.Dhcp_vivo static "N";
  check Hints.Mdns static "Y";
  (* dns column *)
  let dns = env ~dns:true () in
  check Hints.Dns_srv dns "Y";
  check Hints.Dns_naptr dns "Y";
  check Hints.Dhcp_option72 dns "N"

let test_hints_preferred_order () =
  let e = env ~dhcp:true ~dns:true () in
  let order = Hints.preferred_order e in
  Alcotest.(check bool) "non-empty" true (order <> []);
  (* All Available mechanisms come before any Combined ones. *)
  let availability = List.map (fun m -> Hints.available m e) order in
  let rec check_sorted seen_combined = function
    | [] -> true
    | Hints.Available :: _ when seen_combined -> false
    | Hints.Available :: rest -> check_sorted false rest
    | Hints.Combined :: rest -> check_sorted true rest
    | Hints.Not_applicable :: _ -> false
  in
  Alcotest.(check bool) "available first, no N/A" true (check_sorted false availability)

(* --- Bootstrap --- *)

let mk_server () =
  let signer, pub = Schnorr.derive ~seed:"test-as" in
  let topology =
    Bootstrap.sign_topology ~ia:(Ia.of_string "71-2:0:42")
      ~border_routers:[ Scion_addr.Ipv4.endpoint_of_string "10.0.0.2:30042" ]
      ~control_service:(Scion_addr.Ipv4.endpoint_of_string "10.0.0.3:30252")
      ~signer
  in
  let root_priv, root_pub = Schnorr.derive ~seed:"test-root" in
  let trc =
    Scion_cppki.Trc.sign_base ~isd:71 ~validity:(0.0, 4e9)
      ~core_ases:[ Ia.of_string "71-20965" ]
      ~ca_ases:[ Ia.of_string "71-20965" ]
      ~quorum:1
      ~roots:[ ("r", root_priv, root_pub) ]
  in
  ( { Bootstrap.endpoint = Scion_addr.Ipv4.endpoint_of_string "192.168.1.1:8041"; topology; trcs = [ trc ] },
    pub )

let rng () = Scion_util.Rng.create 5L

let test_bootstrap_success () =
  let server, key = mk_server () in
  match
    Bootstrap.run ~rng:(rng ()) ~os:Bootstrap.Linux ~env:(env ~dhcp:true ())
      ~server:(Some server) ~as_cert_key:key ()
  with
  | Ok (topo, trc, timing) ->
      Alcotest.(check bool) "topology ia" true
        (Ia.equal topo.Bootstrap.ia (Ia.of_string "71-2:0:42"));
      Alcotest.(check int) "trc isd" 71 trc.Scion_cppki.Trc.isd;
      Alcotest.(check bool) "total = hint + config" true
        (abs_float (timing.Bootstrap.total_ms -. timing.Bootstrap.hint_ms -. timing.Bootstrap.config_ms) < 1e-9);
      Alcotest.(check bool) "used a DHCP mechanism" true
        (timing.Bootstrap.mechanism = Hints.Dhcp_vivo || timing.Bootstrap.mechanism = Hints.Dhcp_option72)
  | Error e -> Alcotest.fail (Bootstrap.error_to_string e)

let test_bootstrap_errors () =
  let server, key = mk_server () in
  (* No mechanism available. *)
  (match
     Bootstrap.run ~rng:(rng ()) ~os:Bootstrap.Linux ~env:(env ()) ~server:(Some server)
       ~as_cert_key:key ()
   with
  | Error Bootstrap.No_hint_available -> ()
  | _ -> Alcotest.fail "expected No_hint_available");
  (* No server. *)
  (match
     Bootstrap.run ~rng:(rng ()) ~os:Bootstrap.Linux ~env:(env ~dhcp:true ()) ~server:None
       ~as_cert_key:key ()
   with
  | Error Bootstrap.Server_unreachable -> ()
  | _ -> Alcotest.fail "expected Server_unreachable");
  (* Wrong signing key on the topology. *)
  let _, wrong = Schnorr.derive ~seed:"other" in
  (match
     Bootstrap.run ~rng:(rng ()) ~os:Bootstrap.Linux ~env:(env ~dhcp:true ())
       ~server:(Some server) ~as_cert_key:wrong ()
   with
  | Error Bootstrap.Topology_signature_invalid -> ()
  | _ -> Alcotest.fail "expected Topology_signature_invalid");
  (* Broken TRC chain: serial gap. *)
  let bad = { server with Bootstrap.trcs = [ { (List.hd server.Bootstrap.trcs) with Scion_cppki.Trc.serial = 2 } ] } in
  match
    Bootstrap.run ~rng:(rng ()) ~os:Bootstrap.Linux ~env:(env ~dhcp:true ()) ~server:(Some bad)
      ~as_cert_key:key ()
  with
  | Error (Bootstrap.Trc_chain_invalid _) -> ()
  | _ -> Alcotest.fail "expected Trc_chain_invalid"

let test_bootstrap_latency_model () =
  let r = rng () in
  let server, key = mk_server () in
  (* NDP hints read cached RAs and must be fast; mDNS multicasts and waits. *)
  let hint_ms mech os =
    match
      Bootstrap.run ~rng:r ~os ~env:(env ~ras:true ()) ~server:(Some server) ~as_cert_key:key
        ~force_mechanism:mech ()
    with
    | Ok (_, _, timing) -> timing.Bootstrap.hint_ms
    | Error e -> Alcotest.fail (Bootstrap.error_to_string e)
  in
  let avg mech os = Scion_util.Stats.mean (Array.init 200 (fun _ -> hint_ms mech os)) in
  Alcotest.(check bool) "ndp < mdns" true
    (avg Hints.Ipv6_ndp_ra Bootstrap.Linux < avg Hints.Mdns Bootstrap.Linux);
  Alcotest.(check bool) "linux < windows" true
    (avg Hints.Dns_srv Bootstrap.Linux < avg Hints.Dns_srv Bootstrap.Windows)

let test_topology_tamper () =
  let server, key = mk_server () in
  let verifies server =
    match
      Bootstrap.run ~rng:(rng ()) ~os:Bootstrap.Linux ~env:(env ~dhcp:true ()) ~server:(Some server)
        ~as_cert_key:key ()
    with
    | Ok _ -> true
    | Error Bootstrap.Topology_signature_invalid -> false
    | Error e -> Alcotest.fail (Bootstrap.error_to_string e)
  in
  Alcotest.(check bool) "genuine verifies" true (verifies server);
  let tampered = { server.Bootstrap.topology with Bootstrap.ia = Ia.of_string "71-666" } in
  Alcotest.(check bool) "tamper rejected" false (verifies { server with Bootstrap.topology = tampered })

(* --- Daemon --- *)

let dummy_path () : Scion_controlplane.Combinator.fullpath =
  {
    Scion_controlplane.Combinator.src = Ia.of_string "71-1";
    dst = Ia.of_string "71-2";
    segments = [];
    interfaces = [];
    expiry = 1000.0;
    mtu = 1472;
    fingerprint = "fp";
  }

let test_daemon_cache () =
  let calls = ref 0 in
  let fetch ~dst =
    ignore dst;
    incr calls;
    [ dummy_path () ]
  in
  let d = Daemon.create ~ia:(Ia.of_string "71-1") ~fetch ~cache_ttl:100.0 () in
  let dst = Ia.of_string "71-2" in
  let _, src1 = Daemon.lookup d ~now:0.0 ~dst in
  Alcotest.(check bool) "first fetch" true (src1 = Daemon.Fetched);
  let _, src2 = Daemon.lookup d ~now:50.0 ~dst in
  Alcotest.(check bool) "cache hit" true (src2 = Daemon.From_cache);
  Alcotest.(check int) "one backend call" 1 !calls;
  (* TTL expiry triggers refetch. *)
  let _, src3 = Daemon.lookup d ~now:200.0 ~dst in
  Alcotest.(check bool) "refetch after ttl" true (src3 = Daemon.Fetched);
  Alcotest.(check int) "two backend calls" 2 !calls;
  (* Paths expiring within the margin are filtered and force a refetch. *)
  let paths, _ = Daemon.lookup d ~now:995.0 ~dst in
  Alcotest.(check int) "near-expiry filtered" 0 (List.length paths)

(* --- Pan --- *)

let fp ~hops ~mtu ~expiry ~fprint : Scion_controlplane.Combinator.fullpath =
  {
    Scion_controlplane.Combinator.src = Ia.of_string "71-1";
    dst = Ia.of_string "71-9";
    segments = [];
    interfaces =
      List.map
        (fun (ia_s, i, e) -> { Scion_addr.Hop_pred.ia = Ia.of_string ia_s; ingress = i; egress = e })
        hops;
    expiry;
    mtu;
    fingerprint = fprint;
  }

let p1 = fp ~hops:[ ("71-1", 0, 1); ("71-5", 1, 2); ("71-9", 3, 0) ] ~mtu:1400 ~expiry:100.0 ~fprint:"a"
let p2 = fp ~hops:[ ("71-1", 0, 2); ("71-9", 4, 0) ] ~mtu:1300 ~expiry:200.0 ~fprint:"b"
let p3 =
  fp ~hops:[ ("71-1", 0, 3); ("64-559", 1, 2); ("71-9", 5, 0) ] ~mtu:1500 ~expiry:50.0 ~fprint:"c"

let test_pan_policy_parsing () =
  (match Pan.policy_of_options ~sequence:"71-1 * 71-9" ~preference:"latency,hops" () with
  | Ok p ->
      Alcotest.(check bool) "sequence set" true (p.Pan.sequence <> None);
      Alcotest.(check int) "two prefs" 2 (List.length p.Pan.preferences)
  | Error e -> Alcotest.fail e);
  (match Pan.policy_of_options ~preference:"bogus" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bogus preference");
  match Pan.policy_of_options ~sequence:"71-x" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bogus sequence"

let test_pan_filter_sequence () =
  let policy =
    match Pan.policy_of_options ~sequence:"71-1 71-5 71-9" () with Ok p -> p | Error e -> Alcotest.fail e
  in
  let kept = Pan.filter_paths policy [ p1; p2; p3 ] in
  Alcotest.(check int) "only p1" 1 (List.length kept);
  Alcotest.(check string) "p1 fingerprint" "a"
    (List.hd kept).Scion_controlplane.Combinator.fingerprint

let test_pan_deny_transit () =
  let policy = { Pan.default_policy with Pan.deny_transit = Ia.Set.singleton (Ia.of_string "64-559") } in
  let kept = Pan.filter_paths policy [ p1; p2; p3 ] in
  Alcotest.(check int) "p3 dropped" 2 (List.length kept)

let test_pan_sorting () =
  let latency_of p = match p.Scion_controlplane.Combinator.fingerprint with
    | "a" -> 50.0
    | "b" -> 80.0
    | _ -> 20.0
  in
  let by pref =
    List.map
      (fun p -> p.Scion_controlplane.Combinator.fingerprint)
      (Pan.sort_paths { Pan.default_policy with Pan.preferences = [ pref ] } ~latency_of [ p1; p2; p3 ])
  in
  Alcotest.(check (list string)) "latency" [ "c"; "a"; "b" ] (by Pan.Latency);
  Alcotest.(check (list string)) "hops" [ "b"; "a"; "c" ] (by Pan.Hops);
  Alcotest.(check (list string)) "mtu" [ "c"; "a"; "b" ] (by Pan.Mtu);
  Alcotest.(check (list string)) "expiry" [ "b"; "a"; "c" ] (by Pan.Expiry)

let test_pan_modes () =
  Alcotest.(check string) "daemon" "daemon-dependent"
    (Pan.mode_to_string (Pan.choose_mode ~daemon_available:true ~bootstrapper_available:true));
  Alcotest.(check string) "bootstrapper" "bootstrapper-dependent"
    (Pan.mode_to_string (Pan.choose_mode ~daemon_available:false ~bootstrapper_available:true));
  Alcotest.(check string) "standalone" "standalone"
    (Pan.mode_to_string (Pan.choose_mode ~daemon_available:false ~bootstrapper_available:false))

let test_conn_failover () =
  (* A transport where p2 (preferred by hops) is dead but p1 works. *)
  let transport p ~payload =
    ignore payload;
    if p.Scion_controlplane.Combinator.fingerprint = "b" then Pan.Conn.Send_failed
    else Pan.Conn.Sent { rtt_ms = 42.0 }
  in
  let conn =
    match
      Pan.Conn.dial ~policy:Pan.default_policy ~latency_of:(fun _ -> 1.0) ~transport
        ~paths:[ p1; p2 ] ()
    with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "starts on p2 (fewest hops)" "b"
    (Pan.Conn.current_path conn).Scion_controlplane.Combinator.fingerprint;
  (match Pan.Conn.send conn ~payload:"x" with
  | Pan.Conn.Sent { rtt_ms } -> Alcotest.(check (float 1e-9)) "rtt" 42.0 rtt_ms
  | Pan.Conn.Send_failed -> Alcotest.fail "failover did not save the send");
  Alcotest.(check int) "one failover" 1 (Pan.Conn.failovers conn);
  Alcotest.(check string) "now on p1" "a"
    (Pan.Conn.current_path conn).Scion_controlplane.Combinator.fingerprint;
  (* Exhausting all paths surfaces the failure. *)
  let dead_transport _ ~payload = ignore payload; Pan.Conn.Send_failed in
  let conn2 =
    match
      Pan.Conn.dial ~policy:Pan.default_policy ~latency_of:(fun _ -> 1.0)
        ~transport:dead_transport ~paths:[ p1; p2 ] ()
    with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  (match Pan.Conn.send conn2 ~payload:"x" with
  | Pan.Conn.Send_failed -> ()
  | Pan.Conn.Sent _ -> Alcotest.fail "dead transport delivered");
  match Pan.Conn.dial ~policy:Pan.default_policy ~latency_of:(fun _ -> 1.0) ~transport ~paths:[] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dial with no paths succeeded"

(* --- Self-healing: re-probe, exhaustion, revocation --- *)

let test_conn_reprobe_returns_to_preferred () =
  (* p2 (preferred by hops) dies, the connection fails over to p1; once the
     link repairs and the re-probe timer fires, the connection must be back
     on p2 — not stuck on the detour. *)
  let p2_up = ref false in
  let transport p ~payload =
    ignore payload;
    if p.Scion_controlplane.Combinator.fingerprint = "b" && not !p2_up then Pan.Conn.Send_failed
    else Pan.Conn.Sent { rtt_ms = 10.0 }
  in
  let reprobe = Scion_util.Backoff.make ~base_ms:1000.0 ~jitter:0.0 () in
  let conn =
    match
      Pan.Conn.dial ~reprobe:(reprobe, Scion_util.Rng.create 8L) ~policy:Pan.default_policy
        ~latency_of:(fun _ -> 1.0) ~transport ~paths:[ p1; p2 ] ()
    with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  (match Pan.Conn.send conn ~now:0.0 ~payload:"x" with
  | Pan.Conn.Sent _ -> ()
  | Pan.Conn.Send_failed -> Alcotest.fail "failover did not save the send");
  Alcotest.(check string) "detoured to p1" "a"
    (Pan.Conn.current_path conn).Scion_controlplane.Combinator.fingerprint;
  p2_up := true;
  (* Before the probe timer is due, the detour persists. *)
  (match Pan.Conn.send conn ~now:0.5 ~payload:"x" with
  | Pan.Conn.Sent _ -> ()
  | Pan.Conn.Send_failed -> Alcotest.fail "detour send failed");
  Alcotest.(check string) "still on p1 before timer" "a"
    (Pan.Conn.current_path conn).Scion_controlplane.Combinator.fingerprint;
  (* After the 1 s backoff, the parked path is resurrected at its rank. *)
  (match Pan.Conn.send conn ~now:2.0 ~payload:"x" with
  | Pan.Conn.Sent _ -> ()
  | Pan.Conn.Send_failed -> Alcotest.fail "post-repair send failed");
  Alcotest.(check string) "back on preferred p2" "b"
    (Pan.Conn.current_path conn).Scion_controlplane.Combinator.fingerprint;
  Alcotest.(check bool) "reprobe counted" true (Pan.Conn.reprobes conn >= 1)

let mk_paths n =
  List.init n (fun i ->
      fp
        ~hops:[ ("71-1", 0, i + 1); ("71-9", i + 101, 0) ]
        ~mtu:(1300 + i) ~expiry:(100.0 +. float_of_int i)
        ~fprint:(Printf.sprintf "p%d" i))

let qcheck_conn_exhaustion_never_raises =
  (* With every path down, send must return Send_failed — never raise —
     regardless of path count, repeated sends, or re-probe configuration. *)
  QCheck.Test.make ~name:"conn exhaustion returns Send_failed" ~count:100
    QCheck.(triple (int_range 1 8) (int_range 1 5) bool)
    (fun (n_paths, n_sends, with_reprobe) ->
      let dead _ ~payload = ignore payload; Pan.Conn.Send_failed in
      let dial () =
        if with_reprobe then
          Pan.Conn.dial
            ~reprobe:(Scion_util.Backoff.make ~base_ms:100.0 ~jitter:0.0 (), Scion_util.Rng.create 3L)
            ~policy:Pan.default_policy
            ~latency_of:(fun _ -> 1.0) ~transport:dead ~paths:(mk_paths n_paths) ()
        else
          Pan.Conn.dial ~policy:Pan.default_policy ~latency_of:(fun _ -> 1.0) ~transport:dead
            ~paths:(mk_paths n_paths) ()
      in
      match dial () with
      | Error _ -> false
      | Ok conn ->
          List.for_all
            (fun i ->
              let now = if with_reprobe then Some (float_of_int i) else None in
              match Pan.Conn.send ?now conn ~payload:"x" with
              | Pan.Conn.Send_failed -> true
              | Pan.Conn.Sent _ -> false)
            (List.init n_sends Fun.id))

let test_daemon_revocation () =
  let fetches = ref 0 in
  let fetch ~dst =
    ignore dst;
    incr fetches;
    [ p1; p2 ]
  in
  let d =
    Daemon.create ~ia:(Ia.of_string "71-1") ~fetch ~cache_ttl:15.0 ~revocation_ttl:10.0 ()
  in
  let dst = Ia.of_string "71-9" in
  let paths, _ = Daemon.lookup d ~now:0.0 ~dst in
  Alcotest.(check int) "both paths cached" 2 (List.length paths);
  (* SCMP says 71-5 interface 1 is down: p1 crosses it, p2 does not. *)
  let scmp =
    Scion_dataplane.Scmp.External_interface_down { ia = Ia.of_string "71-5"; ifid = 1 }
  in
  (match Daemon.handle_scmp d ~now:1.0 scmp with
  | Some evicted -> Alcotest.(check int) "p1 evicted" 1 evicted
  | None -> Alcotest.fail "External_interface_down must trigger a revocation");
  Alcotest.(check int) "revocation recorded" 1 (Daemon.revocations d);
  Alcotest.(check int) "eviction counted" 1 (Daemon.evicted_paths d);
  let paths, src = Daemon.lookup d ~now:2.0 ~dst in
  Alcotest.(check bool) "survivor served from cache" true (src = Daemon.From_cache);
  Alcotest.(check (list string)) "only p2 remains" [ "b" ]
    (List.map (fun p -> p.Scion_controlplane.Combinator.fingerprint) paths);
  (* Non-revocation SCMP messages are not the daemon's business. *)
  (match Daemon.handle_scmp d ~now:2.0 Scion_dataplane.Scmp.Expired_hop_field with
  | None -> ()
  | Some _ -> Alcotest.fail "only External_interface_down revokes");
  (* After the revocation TTL, the next fetch may serve p1 again. *)
  let paths, _ = Daemon.lookup d ~now:20.0 ~dst in
  Alcotest.(check int) "revocation expired, p1 back" 2 (List.length paths)

(* --- Dispatcher --- *)

let test_dispatcher () =
  let d = Dispatcher.create () in
  (match Dispatcher.register d ~port:40001 ~app:"a" with Ok () -> () | Error e -> Alcotest.fail e);
  (match Dispatcher.register d ~port:40001 ~app:"b" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "port conflict accepted");
  (match Dispatcher.dispatch d ~dst_port:40001 ~payload:"x" with
  | Dispatcher.Delivered p -> Alcotest.(check string) "payload" "x" p
  | Dispatcher.No_listener -> Alcotest.fail "lost packet");
  (match Dispatcher.dispatch d ~dst_port:9 ~payload:"x" with
  | Dispatcher.No_listener -> ()
  | Dispatcher.Delivered _ -> Alcotest.fail "phantom listener");
  (* RSS model: dispatcherless scales with cores, dispatcher does not. *)
  let disp c = Dispatcher.model_throughput ~mode:`Dispatcher ~cores:c ~per_packet_us:1.0 ~dispatcher_overhead_us:2.0 in
  let free c = Dispatcher.model_throughput ~mode:`Dispatcherless ~cores:c ~per_packet_us:1.0 ~dispatcher_overhead_us:2.0 in
  Alcotest.(check (float 1e-6)) "dispatcher flat" (disp 1) (disp 8);
  Alcotest.(check bool) "dispatcherless scales" true (free 8 > 7.9 *. free 1);
  Alcotest.(check bool) "dispatcherless wins even on 1 core" true (free 1 > disp 1)

let () =
  Alcotest.run "scion_endhost"
    [
      ( "hints",
        [
          Alcotest.test_case "table 2 matrix" `Quick test_hints_table2;
          Alcotest.test_case "preferred order" `Quick test_hints_preferred_order;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "success" `Quick test_bootstrap_success;
          Alcotest.test_case "errors" `Quick test_bootstrap_errors;
          Alcotest.test_case "latency model" `Quick test_bootstrap_latency_model;
          Alcotest.test_case "topology tamper" `Quick test_topology_tamper;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "cache" `Quick test_daemon_cache;
          Alcotest.test_case "scmp revocation" `Quick test_daemon_revocation;
        ] );
      ( "pan",
        [
          Alcotest.test_case "policy parsing" `Quick test_pan_policy_parsing;
          Alcotest.test_case "filter sequence" `Quick test_pan_filter_sequence;
          Alcotest.test_case "deny transit" `Quick test_pan_deny_transit;
          Alcotest.test_case "sorting" `Quick test_pan_sorting;
          Alcotest.test_case "modes" `Quick test_pan_modes;
          Alcotest.test_case "conn failover" `Quick test_conn_failover;
          Alcotest.test_case "re-probe returns to preferred" `Quick
            test_conn_reprobe_returns_to_preferred;
          QCheck_alcotest.to_alcotest qcheck_conn_exhaustion_never_raises;
        ] );
      ("dispatcher", [ Alcotest.test_case "demux + model" `Quick test_dispatcher ]);
    ]
