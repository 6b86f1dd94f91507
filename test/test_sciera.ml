module Ia = Scion_addr.Ia
module Topology = Sciera.Topology
module Network = Sciera.Network
module Incidents = Sciera.Incidents

let ia = Ia.of_string

(* One shared small-footprint network for the read-only tests. *)
let network = lazy (Network.create ~per_origin:6 ~verify_pcbs:false ())

(* --- Topology data invariants --- *)

let test_topology_well_formed () =
  let known q = match Topology.find q with _ -> true | exception Not_found -> false in
  List.iter
    (fun (l : Topology.link_info) ->
      Alcotest.(check bool) "endpoint a known" true (known l.Topology.a);
      Alcotest.(check bool) "endpoint b known" true (known l.Topology.b);
      Alcotest.(check bool) "latency positive" true (l.Topology.latency_ms > 0.0);
      Alcotest.(check bool) "jitter non-negative" true (l.Topology.jitter_ms >= 0.0))
    Topology.links;
  (* No duplicate AS entries. *)
  let ias = List.map (fun (a : Topology.as_info) -> a.Topology.ia) Topology.ases in
  Alcotest.(check int) "unique ases" (List.length ias)
    (List.length (List.sort_uniq Ia.compare ias))

let test_topology_measurement_points () =
  let ms = Topology.measurement_ases in
  Alcotest.(check int) "11 vantage ASes" 11 (List.length ms);
  let in_region r =
    List.length
      (List.filter (fun q -> (Topology.find q).Topology.region = r) ms)
  in
  Alcotest.(check int) "5 in Europe" 5 (in_region Topology.Europe);
  Alcotest.(check int) "2 in Asia" 2 (in_region Topology.Asia);
  Alcotest.(check int) "3 in North America" 3 (in_region Topology.North_america);
  Alcotest.(check int) "1 in South America" 1 (in_region Topology.South_america);
  (* Figure 8's nine ASes are all vantage points. *)
  Alcotest.(check int) "fig8 has 9" 9 (List.length Topology.fig8_ases);
  List.iter
    (fun q -> Alcotest.(check bool) (Ia.to_string q) true (List.exists (Ia.equal q) ms))
    Topology.fig8_ases

let test_topology_tiers_and_cores () =
  (* All ISD-71 cores are Tier 1; exactly the paper's core set. *)
  let cores =
    List.filter (fun (a : Topology.as_info) -> a.Topology.core && a.Topology.ia.Ia.isd = 71) Topology.ases
  in
  Alcotest.(check int) "8 cores in ISD 71" 8 (List.length cores);
  List.iter
    (fun (a : Topology.as_info) ->
      Alcotest.(check bool) (a.Topology.name ^ " tier1") true (a.Topology.tier = Topology.Tier1))
    cores;
  (* Each ISD has at least one CA. *)
  List.iter
    (fun isd ->
      Alcotest.(check bool)
        (Printf.sprintf "ISD %d has CA" isd)
        true
        (List.exists (fun (a : Topology.as_info) -> a.Topology.ca && a.Topology.ia.Ia.isd = isd) Topology.ases))
    [ 71; 64 ]

let test_topology_ip_overlay () =
  Alcotest.(check int) "table 1 rows" 16 (List.length Topology.pops);
  let hub_names = List.map (fun h -> h.Topology.hub_name) Topology.ip_hubs in
  List.iter
    (fun (a : Topology.as_info) ->
      let hub, ms = Topology.ip_access_for a in
      Alcotest.(check bool) (a.Topology.name ^ " hub exists") true (List.mem hub hub_names);
      Alcotest.(check bool) (a.Topology.name ^ " access > 0") true (ms > 0.0))
    Topology.ases;
  List.iter
    (fun (a, b, ms) ->
      Alcotest.(check bool) "hub link endpoints" true (List.mem a hub_names && List.mem b hub_names);
      Alcotest.(check bool) "hub latency > 0" true (ms > 0.0))
    Topology.ip_hub_links

let test_find_by_name () =
  (match Topology.find_by_name "sidnlabs" with
  | Some a -> Alcotest.(check string) "canonical" "SIDN Labs" a.Topology.name
  | None -> Alcotest.fail "lookup failed");
  Alcotest.(check bool) "unknown" true (Topology.find_by_name "no-such-site" = None)

(* --- Incidents --- *)

let test_incidents_calendar () =
  List.iter
    (fun (i : Incidents.incident) ->
      Alcotest.(check bool) (i.Incidents.title ^ " ordered") true
        (i.Incidents.from_day < i.Incidents.to_day))
    Incidents.calendar;
  let pts = Incidents.change_points in
  Alcotest.(check bool) "sorted" true (List.sort compare pts = pts);
  Alcotest.(check bool) "starts at 0" true (List.hd pts = 0.0);
  Alcotest.(check bool) "ends at window" true
    (List.nth pts (List.length pts - 1) = Incidents.window_days);
  (* The RNP-BRIDGES outage covers the whole window. *)
  Alcotest.(check bool) "rnp-bridges at day 10" true
    (List.exists
       (fun i -> i.Incidents.title = "RNP-BRIDGES circuit not yet in service")
       (Incidents.active_at 10.0))

(* The per-day incident matcher [Network.set_day] ran before the calendar
   was compiled per link, kept as the oracle: on every call it matched each
   link against every active incident and summed the latencies. It read
   [Incidents.active_at]; here the incident list is a parameter. *)
let ref_effects_for incidents (link : Topology.link_info) day =
  List.filter_map
    (fun (i : Incidents.incident) ->
      let matches a b label =
        ((Ia.equal a link.Topology.a && Ia.equal b link.Topology.b)
        || (Ia.equal a link.Topology.b && Ia.equal b link.Topology.a))
        && match label with None -> true | Some l -> l = link.Topology.label
      in
      match i.Incidents.effect with
      | Incidents.Link_down { a; b; label } when matches a b label -> Some `Down
      | Incidents.Link_degraded { a; b; label; extra_ms } when matches a b label ->
          Some (`Degraded extra_ms)
      | Incidents.Link_down _ | Incidents.Link_degraded _ -> None)
    (List.filter (fun (i : Incidents.incident) -> day >= i.from_day && day < i.to_day) incidents)

(* (up, extra latency) of one link on [day], as the old [apply_day] set it. *)
let ref_state ?(incidents = Incidents.calendar) link day =
  let effects = ref_effects_for incidents link day in
  ( not (List.mem `Down effects),
    List.fold_left (fun acc e -> match e with `Degraded ms -> acc +. ms | `Down -> acc) 0.0 effects )

(* Every 600 s of the window, every change point and its 1e-9 neighbours,
   and a day on each side of the window. *)
let oracle_days incidents =
  let change_points = List.concat_map (fun (i : Incidents.incident) -> [ i.from_day; i.to_day ]) incidents in
  List.init 2881 (fun k -> float_of_int k *. 600.0 /. Incidents.day_seconds)
  @ List.concat_map (fun d -> [ d -. 1e-9; d; d +. 1e-9 ]) change_points
  @ [ -1.0; 25.0 ]

(* The calendar has no two degradations open on one link at once, so a
   copy with two windows overlapping the first BRIDGES-UVa flap checks
   the summing as well. *)
let overlapping_calendar =
  let bridges = ia "71-2:0:35" and uva = ia "71-225" in
  let degraded from_day to_day extra_ms =
    {
      Incidents.title = "synthetic overlap";
      from_day;
      to_day;
      effect = Incidents.Link_degraded { a = uva; b = bridges; label = None; extra_ms };
    }
  in
  Incidents.calendar @ [ degraded 1.9 2.2 7.0; degraded 2.1 2.4 0.3 ]

let test_compiled_calendar_matches_oracle () =
  List.iter
    (fun incidents ->
      let timeline = Incidents.compile incidents Topology.links in
      List.iter
        (fun day ->
          List.iteri
            (fun id (l : Topology.link_info) ->
              let up, extra = ref_state ~incidents l day in
              let st = Incidents.state_at timeline id day in
              if st.Incidents.up <> up || not (Float.equal st.Incidents.extra_ms extra) then
                Alcotest.failf "link %d (%s) on day %.17g: compiled (%b, %.17g ms), oracle (%b, %.17g ms)"
                  id l.Topology.label day st.Incidents.up st.Incidents.extra_ms up extra)
            Topology.links)
        (oracle_days incidents))
    [ Incidents.calendar; overlapping_calendar ]

(* Drive [set_day] through every change point, a backward seek, and days
   past either end of the window (all links up). After each call the
   fabric must hold the oracle's link state, and the re-beacon count must
   follow the old rule: up set changed, last convergence older than 0.8
   day, or seeking backward. *)
let check_set_day_against_oracle net =
  let links = (Network.topology net).Topology.spec_links in
  let fabric = Network.scion_fabric net in
  let last_beacon = ref 0.0 and rebeacons = ref (Network.rebeacon_count net) in
  let check day =
    List.iteri
      (fun id l ->
        let up, extra = ref_state l day in
        Alcotest.(check bool) (Printf.sprintf "day %g link %d up" day id) up (Netsim.Net.link_up fabric id);
        if not (Float.equal extra (Netsim.Net.extra_latency fabric id)) then
          Alcotest.failf "day %g link %d: extra latency %.17g, oracle %.17g" day id
            (Netsim.Net.extra_latency fabric id) extra)
      links;
    Alcotest.(check int) (Printf.sprintf "day %g re-beacons" day) !rebeacons (Network.rebeacon_count net)
  in
  check 0.0;
  let mid = List.nth Incidents.change_points (List.length Incidents.change_points / 2) in
  List.iter
    (fun day ->
      let changed =
        List.exists (fun (id, l) -> fst (ref_state l day) <> Netsim.Net.link_up fabric id)
          (List.mapi (fun id l -> (id, l)) links)
      in
      Network.set_day net day;
      if changed || day -. !last_beacon > 0.8 || day < !last_beacon then begin
        incr rebeacons;
        last_beacon := day
      end;
      check day)
    (Incidents.change_points @ [ mid; 25.0; -1.0 ])

let test_set_day_matches_oracle () =
  check_set_day_against_oracle (Network.create ~per_origin:4 ~verify_pcbs:false ());
  let gen = Topogen.generate ~seed:0x5E7DL (Topogen.default ~n_ases:30) in
  check_set_day_against_oracle
    (Network.create ~topology:(Topology.of_topogen gen) ~per_origin:2 ~propagate_k:2
       ~rounds:(Topogen.max_depth gen + 2) ~verify_pcbs:false ())

let test_set_day_rejects_non_finite () =
  let net = Lazy.force network in
  List.iter
    (fun day ->
      match Network.set_day net day with
      | () -> Alcotest.failf "set_day accepted day %g" day
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* --- Network --- *)

let test_network_paths_exist () =
  let net = Lazy.force network in
  List.iter
    (fun (src, dst) ->
      let ps = Network.paths net ~src:(ia src) ~dst:(ia dst) in
      Alcotest.(check bool) (src ^ "->" ^ dst) true (ps <> []))
    [
      ("71-225", "71-2:0:5c"); ("71-2:0:42", "71-2:0:4d"); ("64-2:0:9", "71-1140");
      ("71-37288", "71-4158"); ("71-50999", "71-88");
    ]

let test_network_rtt_consistency () =
  let net = Lazy.force network in
  let ps = Network.paths net ~src:(ia "71-2:0:42") ~dst:(ia "71-2:0:4d") in
  List.iter
    (fun p ->
      let base = Network.scion_rtt_base net p in
      Alcotest.(check bool) "base positive" true (base > 0.0);
      match Network.scion_rtt_sample net p with
      | `Rtt sample -> Alcotest.(check bool) "sample >= base" true (sample >= base -. 1e-9)
      | `Lost -> ())
    ps;
  (* Every control-plane path maps onto fabric links. *)
  List.iter
    (fun p ->
      let links = Network.path_links net p in
      Alcotest.(check int) "one link per inter-AS hop"
        (List.length p.Scion_controlplane.Combinator.interfaces - 1)
        (List.length links))
    ps

let test_network_ip_baseline () =
  let net = Lazy.force network in
  (match Network.ip_rtt_base net ~src:(ia "71-225") ~dst:(ia "71-2:0:48") with
  | Some rtt -> Alcotest.(check bool) "nearby pair under 40ms" true (rtt < 40.0)
  | None -> Alcotest.fail "no IP route");
  (match Network.ip_rtt_base net ~src:(ia "71-2:0:5c") ~dst:(ia "71-2:0:4d") with
  | Some rtt -> Alcotest.(check bool) "intercontinental over 200ms" true (rtt > 200.0)
  | None -> Alcotest.fail "no IP route");
  (* Determinism of the per-pair detour factor. *)
  let a = Network.ip_rtt_base net ~src:(ia "71-225") ~dst:(ia "71-2:0:5c") in
  let b = Network.ip_rtt_base net ~src:(ia "71-225") ~dst:(ia "71-2:0:5c") in
  Alcotest.(check bool) "deterministic" true (a = b)

(* Every ordered pair of distinct Figure-1 ASes (29 x 28 = 812). *)
let fig1_pairs =
  let ias = List.map (fun (a : Topology.as_info) -> a.Topology.ia) Topology.ases in
  List.concat_map
    (fun src -> List.filter_map (fun dst -> if Ia.equal src dst then None else Some (src, dst)) ias)
    ias

(* MD5 over the exact bits of a float sequence ([None] / lost as a tag). *)
let float_bits_digest values =
  let b = Buffer.create 4096 in
  List.iter
    (function
      | Some f -> Buffer.add_string b (Printf.sprintf "%016Lx;" (Int64.bits_of_float f))
      | None -> Buffer.add_string b "-;")
    values;
  Digest.to_hex (Digest.string (Buffer.contents b))

let ip_base_digest net =
  float_bits_digest (List.map (fun (src, dst) -> Network.ip_rtt_base net ~src ~dst) fig1_pairs)

(* Recorded from the uncached baseline, which recomputed the route and the
   detour factor on every call. *)
let ip_base_pinned = "d5172333483e732319f7d2ea4dd80819"
let ip_sample_pinned = "e41e82b72277cbbb67767693a8786d0d"

let test_ip_base_pinned_across_calendar () =
  Alcotest.(check int) "ordered pairs" 812 (List.length fig1_pairs);
  let net = Network.create ~per_origin:4 ~verify_pcbs:false () in
  Alcotest.(check string) "day 0" ip_base_pinned (ip_base_digest net);
  List.iter
    (fun day ->
      Network.set_day net day;
      Alcotest.(check string) (Printf.sprintf "day %g" day) ip_base_pinned (ip_base_digest net))
    Incidents.change_points;
  (* The same days walked before the first IP lookup. *)
  let cold = Network.create ~per_origin:4 ~verify_pcbs:false () in
  List.iter (Network.set_day cold) Incidents.change_points;
  Alcotest.(check string) "first lookup after the walk" ip_base_pinned (ip_base_digest cold)

let test_ip_sample_warm_matches_cold () =
  let warm = Network.create ~per_origin:4 ~verify_pcbs:false ()
  and cold = Network.create ~per_origin:4 ~verify_pcbs:false () in
  List.iter (fun (src, dst) -> ignore (Network.ip_rtt_base warm ~src ~dst)) (List.rev fig1_pairs);
  let samples net =
    List.concat_map
      (fun (src, dst) ->
        List.init 3 (fun _ ->
            match Network.ip_rtt_sample net ~src ~dst with `Rtt ms -> Some ms | `Lost -> None))
      fig1_pairs
  in
  let cold_digest = float_bits_digest (samples cold) in
  Alcotest.(check string) "warm memo samples the cold bits" cold_digest
    (float_bits_digest (samples warm));
  Alcotest.(check string) "sample sequence" ip_sample_pinned cold_digest

let test_network_incident_day () =
  (* A private network instance because this test mutates day state. *)
  let net = Network.create ~per_origin:6 ~verify_pcbs:false () in
  let dj = ia "71-2:0:3b" and sg = ia "71-2:0:3d" in
  let uses_direct p =
    (* The direct link is the only 2-hop DJ->SG path. *)
    Scion_controlplane.Combinator.num_hops p = 2
  in
  Network.set_day net 1.0;
  let before = Network.live_paths net ~src:dj ~dst:sg in
  Alcotest.(check bool) "direct link usable on day 1" true (List.exists uses_direct before);
  Network.set_day net 5.0;
  let during = Network.live_paths net ~src:dj ~dst:sg in
  Alcotest.(check bool) "direct link gone during the cut" false (List.exists uses_direct during);
  Alcotest.(check bool) "still connected around the globe" true (during <> []);
  Network.set_day net 19.0;
  let after = Network.live_paths net ~src:dj ~dst:sg in
  Alcotest.(check bool) "direct link back after repair" true (List.exists uses_direct after)

let test_network_ufms_detour () =
  (* The paper's Fig. 6 outlier: UFMS reaches Equinix via GEANT because the
     RNP-BRIDGES circuit carries no SCION during the whole campaign. *)
  let net = Lazy.force network in
  let ps = Network.paths net ~src:(ia "71-2:0:5c") ~dst:(ia "71-2:0:48") in
  Alcotest.(check bool) "paths exist" true (ps <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool) "every path crosses GEANT" true
        (Scion_controlplane.Combinator.contains_ia p (ia "71-20965")))
    ps

(* --- Multiping --- *)

let test_multiping_small_run () =
  let net = Network.create ~per_origin:6 ~verify_pcbs:false () in
  let config =
    {
      Sciera.Multiping.interval_s = 1800.0;
      pings_per_interval = 2;
      stall_fraction = 0.6;
      stall_sources = [ ia "71-225" ];
    }
  in
  let ds = Sciera.Multiping.run net ~config ~days:0.25 ~sources:[ ia "71-225"; ia "71-20965" ] () in
  Alcotest.(check bool) "samples collected" true (ds.Sciera.Multiping.samples <> []);
  Alcotest.(check bool) "scion pings counted" true (ds.Sciera.Multiping.scion_pings > 0);
  (* The stalled source skips ICMP in the stalled part of each hour. *)
  let stalled_samples =
    List.filter
      (fun s -> Ia.equal s.Sciera.Multiping.src (ia "71-225") && s.Sciera.Multiping.ip_sent = 0)
      ds.Sciera.Multiping.samples
  in
  Alcotest.(check bool) "stalls happened" true (stalled_samples <> []);
  let kept = Sciera.Multiping.excluded_ip_majority ds in
  Alcotest.(check bool) "exclusion drops stalled intervals" true
    (List.length kept.Sciera.Multiping.samples < List.length ds.Sciera.Multiping.samples);
  List.iter
    (fun s -> Alcotest.(check bool) "kept samples have icmp" true (s.Sciera.Multiping.ip_sent > 0))
    kept.Sciera.Multiping.samples

let test_multiping_probe_selection () =
  let net = Lazy.force network in
  let probes = Sciera.Multiping.probe_paths net ~src:(ia "71-225") ~dst:(ia "71-2:0:5c") in
  Alcotest.(check bool) "1-3 paths" true (List.length probes >= 1 && List.length probes <= 3);
  let fps = List.map (fun p -> p.Scion_controlplane.Combinator.fingerprint) probes in
  Alcotest.(check int) "distinct" (List.length fps) (List.length (List.sort_uniq compare fps));
  Alcotest.(check bool) "no probe for self" true
    (Sciera.Multiping.probe_paths net ~src:(ia "71-225") ~dst:(ia "71-225") = [])

(* --- Science DMZ --- *)

let test_filter_verdicts () =
  let module F = Sciera.Science_dmz.Filter in
  let peer = ia "71-50999" in
  let filter = F.create ~local_secret:"s" ~allowed:[ (peer, 2.0) ] () in
  let key = F.host_key filter ~peer in
  let tag = F.authenticate ~key ~payload:"data" in
  Alcotest.(check bool) "accepts" true (F.check filter ~now:0.0 ~src:peer ~payload:"data" ~tag = F.Accepted);
  (* Replaying an already-verified tag is suppressed before the MAC. *)
  Alcotest.(check bool) "duplicate" true
    (F.check filter ~now:0.0 ~src:peer ~payload:"datX" ~tag = F.Duplicate);
  (* A never-seen tag that does not authenticate the payload is a MAC failure. *)
  let wrong_tag = F.authenticate ~key ~payload:"something-else" in
  Alcotest.(check bool) "bad mac" true
    (F.check filter ~now:0.0 ~src:peer ~payload:"datX" ~tag:wrong_tag = F.Bad_mac);
  Alcotest.(check bool) "unknown" true
    (F.check filter ~now:0.0 ~src:(ia "71-88") ~payload:"data" ~tag = F.Unknown_source);
  (* Rate limit: 2 pps bucket drains on the third packet in the same second. *)
  let t2 = F.authenticate ~key ~payload:"d2" in
  Alcotest.(check bool) "second ok" true (F.check filter ~now:0.0 ~src:peer ~payload:"d2" ~tag:t2 = F.Accepted);
  let t3 = F.authenticate ~key ~payload:"d3" in
  Alcotest.(check bool) "third limited" true
    (F.check filter ~now:0.0 ~src:peer ~payload:"d3" ~tag:t3 = F.Rate_limited);
  (* Tokens replenish with time. *)
  let t4 = F.authenticate ~key ~payload:"d4" in
  Alcotest.(check bool) "after a second" true
    (F.check filter ~now:1.0 ~src:peer ~payload:"d4" ~tag:t4 = F.Accepted);
  Alcotest.(check int) "accepted count" 3 (F.accepted filter);
  Alcotest.(check int) "rejected count" 4 (F.rejected filter)

let test_filter_duplicate_suppression () =
  let module F = Sciera.Science_dmz.Filter in
  let peer = ia "71-50999" in
  let filter = F.create ~local_secret:"s" ~allowed:[ (peer, 100.0) ] () in
  let key = F.host_key filter ~peer in
  let tag = F.authenticate ~key ~payload:"data" in
  Alcotest.(check bool) "first seen accepted" true
    (F.check filter ~now:0.2 ~src:peer ~payload:"data" ~tag = F.Accepted);
  Alcotest.(check bool) "replay in window suppressed" true
    (F.check filter ~now:0.3 ~src:peer ~payload:"data" ~tag = F.Duplicate);
  (* Dedup keys on the tag: a forged payload riding a replayed tag is
     dropped without recomputing the MAC. *)
  Alcotest.(check bool) "forged payload on replayed tag" true
    (F.check filter ~now:0.4 ~src:peer ~payload:"forged" ~tag = F.Duplicate);
  (* Once the window rolls over, the same packet is admitted again. *)
  Alcotest.(check bool) "fresh window re-admits" true
    (F.check filter ~now:1.5 ~src:peer ~payload:"data" ~tag = F.Accepted);
  (* MAC failures are never recorded in the window, so a forged tag cannot
     shadow a later genuine packet and repeats stay Bad_mac. *)
  let tag2 = F.authenticate ~key ~payload:"other" in
  Alcotest.(check bool) "bad mac" true
    (F.check filter ~now:1.6 ~src:peer ~payload:"p" ~tag:tag2 = F.Bad_mac);
  Alcotest.(check bool) "bad mac repeats, not duplicate" true
    (F.check filter ~now:1.7 ~src:peer ~payload:"p" ~tag:tag2 = F.Bad_mac);
  Alcotest.(check bool) "genuine packet unshadowed by forged attempts" true
    (F.check filter ~now:1.8 ~src:peer ~payload:"other" ~tag:tag2 = F.Accepted);
  (* check_batch: one window for the whole burst, replays inside the batch
     included. *)
  let ta = F.authenticate ~key ~payload:"a" and tb = F.authenticate ~key ~payload:"b" in
  let verdicts =
    F.check_batch filter ~now:3.0
      [ (peer, "a", ta); (peer, "a", ta); (peer, "b", tb); (ia "71-88", "a", ta) ]
  in
  Alcotest.(check bool) "batch verdicts" true
    (verdicts = [ F.Accepted; F.Duplicate; F.Accepted; F.Unknown_source ])

let test_hercules_plan () =
  let module H = Sciera.Science_dmz.Hercules in
  let p1 = { H.rtt_ms = 100.0; bandwidth_mbps = 10_000.0 } in
  let p2 = { H.rtt_ms = 150.0; bandwidth_mbps = 10_000.0 } in
  let plan = H.plan_transfer ~size_gb:100.0 ~paths:[ p1; p2 ] in
  Alcotest.(check (float 1e-6)) "aggregate" 20_000.0 plan.H.total_mbps;
  Alcotest.(check (float 1e-6)) "shares sum" 1.0 (List.fold_left ( +. ) 0.0 plan.H.per_path_share);
  let single = H.single_path_completion ~size_gb:100.0 p1 in
  Alcotest.(check bool) "multipath faster" true (plan.H.completion_s < single);
  Alcotest.(check bool) "roughly half" true
    (plan.H.completion_s > 0.45 *. single && plan.H.completion_s < 0.6 *. single);
  try
    ignore (H.plan_transfer ~size_gb:1.0 ~paths:[]);
    Alcotest.fail "empty path list accepted"
  with Invalid_argument _ -> ()

(* --- Deployment / survey / app effort --- *)

let test_deployment_learning_curve () =
  let module D = Sciera.Deployment in
  Alcotest.(check int) "22 deployments" 22 (List.length D.timeline);
  (* Chronological order. *)
  let dates = List.map (fun e -> e.D.date) D.timeline in
  Alcotest.(check (list string)) "sorted" (List.sort compare dates) dates;
  (* Effort per kind decreases between first and last instance. *)
  List.iter
    (fun kind ->
      let of_kind = List.filter (fun s -> s.D.event.D.kind = kind) D.scored_timeline in
      match (of_kind, List.rev of_kind) with
      | first :: _, last :: rest when rest <> [] ->
          Alcotest.(check bool)
            "effort per kind got cheaper"
            true (last.D.effort < first.D.effort)
      | _ -> ())
    [ D.Core_backbone; D.Nren_attach; D.Campus_vlan; D.Reused_circuit ]

let test_survey_aggregates () =
  let a = Sciera.Survey.aggregates in
  Alcotest.(check int) "n=8" 8 a.Sciera.Survey.n;
  let chk name v expect = Alcotest.(check (float 1e-9)) name expect v in
  chk "setup within month" a.Sciera.Survey.setup_within_month 37.5;
  chk "setup within six months" a.Sciera.Survey.setup_within_six_months 50.0;
  chk "no vendor support" a.Sciera.Survey.deployed_without_vendor 62.5;
  chk "hardware under 20k" a.Sciera.Survey.hardware_under_20k 75.0;
  chk "no licensing" a.Sciera.Survey.no_licensing 62.5;
  chk "no hiring" a.Sciera.Survey.no_hiring 75.0;
  chk "opex" a.Sciera.Survey.opex_comparable_or_lower 75.0;
  chk "maintenance driver" a.Sciera.Survey.maintenance_driver 62.5;
  chk "staff driver" a.Sciera.Survey.staff_driver 50.0;
  chk "monitoring driver" a.Sciera.Survey.monitoring_driver 25.0;
  chk "power driver" a.Sciera.Survey.power_driver 12.5;
  chk "workload" a.Sciera.Survey.workload_under_10 87.5;
  chk "vendor contacts" a.Sciera.Survey.vendor_under_3_per_year 62.5

let test_app_effort_cases () =
  List.iter
    (fun c ->
      Alcotest.(check bool) (c.Sciera.App_effort.app ^ " small") true
        (c.Sciera.App_effort.loc_delta > 0 && c.Sciera.App_effort.loc_delta <= 25))
    Sciera.App_effort.cases;
  Alcotest.(check int) "three case studies" 3 (List.length Sciera.App_effort.cases)

(* --- Host --- *)

let test_host_roundtrip () =
  let net = Lazy.force network in
  (match Sciera.Host.attach net ~ia:(ia "71-666") () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "attached to unknown AS");
  let host =
    match Sciera.Host.attach net ~ia:(ia "71-2:0:42") () with
    | Ok h -> h
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "daemon mode" true (Sciera.Host.mode host = Scion_endhost.Pan.Daemon_dependent);
  Alcotest.(check bool) "bootstrap under 1s" true
    ((Sciera.Host.bootstrap_timing host).Scion_endhost.Bootstrap.total_ms < 1000.0);
  (match Sciera.Host.ping host ~dst:(ia "71-2:0:4d") with
  | `Rtt ms -> Alcotest.(check bool) "plausible rtt" true (ms > 50.0 && ms < 2000.0)
  | `Unreachable -> Alcotest.fail "ping failed");
  match
    Sciera.Host.request host ~dst:(ia "71-1140") ~payload:"q" ~handler:(fun q -> q ^ "!") ()
  with
  | Ok (`Reply (ans, _)) -> Alcotest.(check string) "echoed" "q!" ans
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "sciera"
    [
      ( "topology",
        [
          Alcotest.test_case "well-formed" `Quick test_topology_well_formed;
          Alcotest.test_case "measurement points" `Quick test_topology_measurement_points;
          Alcotest.test_case "tiers and cores" `Quick test_topology_tiers_and_cores;
          Alcotest.test_case "ip overlay" `Quick test_topology_ip_overlay;
          Alcotest.test_case "find by name" `Quick test_find_by_name;
        ] );
      ( "incidents",
        [
          Alcotest.test_case "calendar" `Quick test_incidents_calendar;
          Alcotest.test_case "compiled state matches the per-day oracle" `Quick
            test_compiled_calendar_matches_oracle;
        ] );
      ( "network",
        [
          Alcotest.test_case "paths exist" `Quick test_network_paths_exist;
          Alcotest.test_case "rtt consistency" `Quick test_network_rtt_consistency;
          Alcotest.test_case "ip baseline" `Quick test_network_ip_baseline;
          Alcotest.test_case "ip base pinned across the calendar" `Quick
            test_ip_base_pinned_across_calendar;
          Alcotest.test_case "ip samples: warm memo = cold memo" `Quick test_ip_sample_warm_matches_cold;
          Alcotest.test_case "incident day" `Slow test_network_incident_day;
          Alcotest.test_case "ufms detour" `Quick test_network_ufms_detour;
          Alcotest.test_case "set_day matches the per-day oracle" `Quick test_set_day_matches_oracle;
          Alcotest.test_case "set_day rejects a non-finite day" `Quick test_set_day_rejects_non_finite;
        ] );
      ( "multiping",
        [
          Alcotest.test_case "small run" `Slow test_multiping_small_run;
          Alcotest.test_case "probe selection" `Quick test_multiping_probe_selection;
        ] );
      ( "science_dmz",
        [
          Alcotest.test_case "filter verdicts" `Quick test_filter_verdicts;
          Alcotest.test_case "filter duplicate suppression" `Quick test_filter_duplicate_suppression;
          Alcotest.test_case "hercules plan" `Quick test_hercules_plan;
        ] );
      ( "evaluation-data",
        [
          Alcotest.test_case "deployment learning curve" `Quick test_deployment_learning_curve;
          Alcotest.test_case "survey aggregates" `Quick test_survey_aggregates;
          Alcotest.test_case "app effort" `Quick test_app_effort_cases;
        ] );
      ("host", [ Alcotest.test_case "roundtrip" `Quick test_host_roundtrip ]);
    ]
