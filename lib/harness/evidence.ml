(* Golden evidence for every figure and table of EXPERIMENTS.md: the
   rendered result table in canonical text plus a telemetry snapshot
   scoped to that figure's run, both byte-stable for the fixed seeds.

   Figures that share a dataset (the connectivity campaign behind
   Figures 5-7, the epoch sweep behind Figures 8-10b) share one memoised
   run per session — the stack-level samples are identical across those
   figures by construction, and each figure adds its own
   [exp.<figure>.<key>] headline gauges on top.

   Every dataset runs the complete EXPERIMENTS.md campaign, at the scale
   each experiment fixes as module constants: 20 multiping days, 100
   link-failure runs, 40 recovery and 30 pathmon trials, scaling meshes up
   to 3000 ASes, and 600-AS meshes for the load and containment figures. *)

module M = Telemetry.Metrics
module Export = Telemetry.Export
module Table = Scion_util.Table

type t = {
  id : string;
  title : string;
  table : string;
  metrics : string;
  failed_claims : string list;
}

(* --- Sessions ---------------------------------------------------------- *)

(* A dataset run against a fresh telemetry bundle, paired with the
   stack-level samples it recorded. *)
type 'a observed = ('a * M.sample list) Lazy.t

(* One session's memoised datasets: every figure run through the same
   session shares them, and two sessions share nothing. *)
type session = {
  connectivity : Sciera.Exp_connectivity.result observed;
  multipath : Sciera.Exp_multipath.result observed;
  resilience : Sciera.Exp_resilience.result observed;
  recovery : Sciera.Exp_recovery.result observed;
  pathmon : Sciera.Exp_pathmon.result observed;
  scaling : Sciera.Exp_scaling.result Lazy.t;
  load : Sciera.Exp_load.result observed;
  adversary : Sciera.Exp_adversary.result Lazy.t;
  bootstrap : Sciera.Exp_bootstrap.result observed;
  isd_evolution : Sciera.Exp_isd_evolution.result observed;
}

let observed run : _ observed =
  lazy
    (let obs = Sciera.Obs.create () in
     let r = run obs in
     (r, Sciera.Obs.samples obs))

let start () =
  {
    connectivity = observed (fun telemetry -> Sciera.Exp_connectivity.run ~telemetry);
    multipath = observed (fun telemetry -> Sciera.Exp_multipath.run ~telemetry ());
    resilience = observed (fun telemetry -> Sciera.Exp_resilience.run ~telemetry);
    recovery = observed (fun telemetry -> Sciera.Exp_recovery.run ~telemetry);
    pathmon = observed (fun telemetry -> Sciera.Exp_pathmon.run ~telemetry);
    (* No stack telemetry: the mesh registers per-AS labelled series (beacon
       stores, border routers), which at N=1000 would explode the metrics
       snapshot. Scale observability flows through Mesh accessors into the
       rows and headline gauges instead. *)
    scaling = lazy (Sciera.Exp_scaling.run ());
    (* Stack telemetry only for the 29-AS mesh (the topogen-scale mesh
       inside the experiment stays telemetry-less — per-AS series, as for
       scaling). *)
    load = observed (fun telemetry -> Sciera.Exp_load.run ~telemetry);
    (* Keeps its meshes telemetry-less for the same per-AS-series reason as
       scaling; its aggregate counts reach the metrics snapshot only as the
       figure's [exp.containment.*] headline gauges. *)
    adversary = lazy (Sciera.Exp_adversary.run ());
    bootstrap = observed (fun telemetry -> Sciera.Exp_bootstrap.run ~telemetry);
    isd_evolution = observed (fun telemetry -> Sciera.Exp_isd_evolution.run ~telemetry);
  }

(* --- Assembly --------------------------------------------------------- *)

let sample_key (s : M.sample) = (s.M.sample_name, s.M.sample_labels)

(* Counts print exactly: an integral value that a float holds exactly
   (below 2^53) renders as an integer, anything else with the canonical
   %.6g of Table.fmt_float. *)
let headline_value v =
  if Float.is_integer v && Float.abs v < 0x1p53 then Printf.sprintf "%.0f" v
  else Table.fmt_float v

let headline_table headline =
  Table.render ~header:[ "headline"; "value" ]
    ~rows:(List.map (fun (k, v) -> [ k; headline_value v ]) headline)

(* [headline] becomes both the table footer and one exp.<id>.<key> gauge
   per entry in the metrics snapshot, merged with the dataset's
   stack-level samples. [claims] pairs each shape claim EXPERIMENTS.md
   makes for the figure with whether this run carries it; only the names
   of the broken ones are kept. [print] appends the figure's report to the
   table body. *)
let make ~id ~title ~samples:stack_samples ~headline ~claims print =
  let reg = M.create () in
  (* scion-lint: allow telemetry-registry -- exp.<id>.<key> gauges are scoped to one figure's private registry and pinned by the checked-in goldens, not the tree-wide registry *)
  List.iter (fun (k, v) -> M.set (M.gauge reg (Printf.sprintf "exp.%s.%s" id k)) v) headline;
  let all = List.sort (fun a b -> compare (sample_key a) (sample_key b)) (stack_samples @ M.snapshot reg) in
  let body = Buffer.create 4096 in
  print body;
  let table =
    Printf.sprintf "== %s ==\n%s-- headline (canonical %%.6g floats) --\n%s" title
      (Buffer.contents body) (headline_table headline)
  in
  let failed_claims = List.filter_map (fun (name, ok) -> if ok then None else Some name) claims in
  { id; title; table; metrics = Export.samples_to_json all; failed_claims }

(* --- Per-figure runners ----------------------------------------------- *)

let print_table1 b =
  Buffer.add_string b
    (Table.render ~header:[ "Location"; "Peering NRENs"; "Partner Networks" ]
       ~rows:(List.map (fun (loc, nrens, partners) -> [ loc; nrens; partners ]) Sciera.Topology.pops));
  Printf.bprintf b "%d ASes in the modelled deployment, %d Layer-2 links\n"
    (List.length Sciera.Topology.ases)
    (List.length Sciera.Topology.links)

let table1 _ make =
  make ~samples:[]
    ~headline:
      [
        ("pops", float_of_int (List.length Sciera.Topology.pops));
        ("ases", float_of_int (List.length Sciera.Topology.ases));
        ("links", float_of_int (List.length Sciera.Topology.links));
      ]
    ~claims:[]
    print_table1

let fig3 _ make =
  let open Sciera.Deployment in
  (* Learning-curve headline: relative effort drop from the first to the
     last deployment of each kind with at least two instances. *)
  let drop k =
    let efforts =
      List.filter_map (fun s -> if s.event.kind = k then Some s.effort else None) scored_timeline
    in
    match efforts with
    | first :: (_ :: _ as rest) -> (
        match List.rev rest with last :: _ -> Some (1.0 -. (last /. first)) | [] -> None)
    | _ -> None
  in
  let kinds =
    [
      (Core_backbone, "core_backbone_effort_drop");
      (Nren_attach, "nren_attach_effort_drop");
      (Campus_vlan, "campus_vlan_effort_drop");
      (Reused_circuit, "reused_circuit_effort_drop");
    ]
  in
  let drops = List.filter_map (fun (k, key) -> Option.map (fun d -> (key, d)) (drop k)) kinds in
  make ~samples:[]
    ~headline:(("deployments", float_of_int (List.length timeline)) :: drops)
    ~claims:[]
    print_fig3

let fig4 s make =
  let r, samples = Lazy.force s.bootstrap in
  let open Sciera.Exp_bootstrap in
  let per_os =
    List.map
      (fun (s : os_summary) ->
        ( String.lowercase_ascii (Scion_endhost.Bootstrap.os_name s.os) ^ "_total_median_ms",
          s.total.Scion_util.Stats.med ))
      r.per_os
  in
  make ~samples
    ~headline:
      (("runs_per_mechanism", float_of_int r.runs_per_mechanism)
      :: ("all_medians_under_ms", r.all_medians_under_ms)
      :: per_os)
    ~claims:
      (("3 OSes", List.length r.per_os = 3)
      :: ("all_medians_under_ms < 150", r.all_medians_under_ms < 150.0)
      :: List.map
           (fun (s : os_summary) ->
             ( Scion_endhost.Bootstrap.os_name s.os ^ ": q1 <= median <= q3",
               s.total.q1 <= s.total.med && s.total.med <= s.total.q3 ))
           r.per_os)
    (fun b -> Sciera.Exp_bootstrap.print_fig4 b r)

let table2 _ make =
  make ~samples:[]
    ~headline:[ ("mechanisms", float_of_int (List.length Scion_endhost.Hints.all)) ]
    ~claims:[]
    Sciera.Exp_bootstrap.print_table2

let app_effort _ make =
  let total =
    List.fold_left (fun acc c -> acc + c.Sciera.App_effort.loc_delta) 0 Sciera.App_effort.cases
  in
  make ~samples:[]
    ~headline:
      [
        ("cases", float_of_int (List.length Sciera.App_effort.cases));
        ("total_loc_delta", float_of_int total);
      ]
    ~claims:[]
    Sciera.App_effort.print_app_effort

let fig5 s make =
  let r, samples = Lazy.force s.connectivity in
  let open Sciera.Exp_connectivity in
  make ~samples
    ~headline:
      [
        ("scion_median_ms", r.scion_median);
        ("ip_median_ms", r.ip_median);
        ("scion_p90_ms", r.scion_p90);
        ("ip_p90_ms", r.ip_p90);
        ("kept_scion_pings", float_of_int r.dataset.Sciera.Multiping.scion_pings);
        ("kept_ip_pings", float_of_int r.dataset.Sciera.Multiping.ip_pings);
      ]
    ~claims:[]
    (fun b -> print_fig5 b r)

let fig6 s make =
  let r, samples = Lazy.force s.connectivity in
  let open Sciera.Exp_connectivity in
  make ~samples
    ~headline:
      [
        ("pairs", float_of_int (List.length r.pair_ratios));
        ("frac_pairs_faster_on_scion", r.frac_pairs_faster_on_scion);
        ("frac_pairs_inflation_le_25pct", r.frac_pairs_inflation_le_25pct);
      ]
    ~claims:[]
    (fun b -> print_fig6 b r)

let fig7 s make =
  let r, samples = Lazy.force s.connectivity in
  let open Sciera.Exp_connectivity in
  let ratios = List.map snd r.timeseries in
  let rmin = List.fold_left min infinity ratios in
  let rmax = List.fold_left max neg_infinity ratios in
  make ~samples
    ~headline:
      [
        ("buckets", float_of_int (List.length r.timeseries));
        ("ratio_min", rmin);
        ("ratio_max", rmax);
      ]
    ~claims:[]
    (fun b -> print_fig7 b r)

let fig8 s make =
  let r, samples = Lazy.force s.multipath in
  let open Sciera.Exp_multipath in
  let _, _, best = r.best_pair in
  make ~samples
    ~headline:
      [ ("min_paths", float_of_int r.min_paths); ("best_pair_paths", float_of_int best) ]
    ~claims:[ ("min_paths >= 2", r.min_paths >= 2); ("best pair > 100 paths", best > 100) ]
    (fun b -> print_fig8 b r)

let fig9 s make =
  let r, samples = Lazy.force s.multipath in
  let open Sciera.Exp_multipath in
  let maxdev =
    Array.fold_left (fun acc row -> Array.fold_left max acc row) 0 r.median_deviation
  in
  make ~samples
    ~headline:[ ("max_median_deviation", float_of_int maxdev) ]
    ~claims:[]
    (fun b -> print_fig9 b r)

let fig10a s make =
  let r, samples = Lazy.force s.multipath in
  let open Sciera.Exp_multipath in
  make ~samples
    ~headline:
      [
        ("frac_inflation_close_to_1", r.frac_inflation_close_to_1);
        ("frac_inflation_le_1_2", r.frac_inflation_le_1_2);
      ]
    ~claims:[]
    (fun b -> print_fig10a b r)

let fig10b s make =
  let r, samples = Lazy.force s.multipath in
  let open Sciera.Exp_multipath in
  make ~samples
    ~headline:
      [
        ("frac_fully_disjoint", r.frac_fully_disjoint);
        ("frac_disjointness_ge_0_7", r.frac_disjointness_ge_0_7);
      ]
    ~claims:[ ("frac_fully_disjoint > 0", r.frac_fully_disjoint > 0.0) ]
    (fun b -> print_fig10b b r)

let fig10c s make =
  let r, samples = Lazy.force s.resilience in
  let open Sciera.Exp_resilience in
  let m20, s20 = connectivity_at r 0.2 in
  let mp = r.multipath_connectivity and sp = r.singlepath_connectivity in
  let n = Array.length mp in
  let at_every k f = List.for_all f (List.init k Fun.id) in
  make ~samples
    ~headline:
      [
        ("runs", float_of_int r.runs);
        ("multipath_at_20pct", m20);
        ("singlepath_at_20pct", s20);
      ]
    ~claims:
      [
        ("multipath starts at 1", n > 0 && Float.abs (mp.(0) -. 1.0) <= 1e-9);
        ("multipath ends at 0", n > 0 && Float.abs mp.(n - 1) <= 1e-9);
        ( "multipath >= single-path at every fraction",
          at_every n (fun i -> mp.(i) >= sp.(i) -. 1e-9) );
        ("multipath non-increasing", at_every (n - 1) (fun i -> mp.(i + 1) <= mp.(i) +. 1e-9));
        ("multipath - single-path > 0.1 at 20%", m20 -. s20 > 0.1);
      ]
    (fun b -> print_fig10c b r)

let survey _ make =
  let a = Sciera.Survey.aggregates in
  make ~samples:[]
    ~headline:
      [
        ("respondents", float_of_int a.Sciera.Survey.n);
        ("setup_within_month_pct", a.Sciera.Survey.setup_within_month);
        ("opex_comparable_or_lower_pct", a.Sciera.Survey.opex_comparable_or_lower);
        ("workload_under_10_pct", a.Sciera.Survey.workload_under_10);
      ]
    ~claims:[]
    Sciera.Survey.print_survey

let isd s make =
  let r, samples = Lazy.force s.isd_evolution in
  let open Sciera.Exp_isd_evolution in
  (* 0 when the ISD-71 scenario is missing, which breaks the first claim on it. *)
  let isd71 =
    List.find_map
      (fun sc ->
        if String.equal sc.failed_domain "ISD 71 (SCIERA)" then Some sc.pairs_lost else None)
      r.single
    |> Option.value ~default:0.0
  in
  let isd71_ases =
    List.fold_left
      (fun acc (d, n) -> if String.equal d "ISD 64 (Swiss)" then acc else acc + n)
      0 r.regional_domains
  in
  make ~samples
    ~headline:
      [
        ("single_avg_blast", r.single_avg_blast);
        ("regional_avg_blast", r.regional_avg_blast);
        ("regional_domains", float_of_int (List.length r.regional_domains));
      ]
    ~claims:
      [
        ("regional average blast < single average", r.regional_avg_blast < r.single_avg_blast);
        ("ISD 71 loses > 0.9 of pairs", isd71 > 0.9);
        ( "every regional domain loses less than ISD 71",
          List.for_all (fun sc -> sc.pairs_lost < isd71) r.regional );
        ("regional domains partition the 27 ISD-71 ASes", isd71_ases = 27);
      ]
    (fun b -> print_report b r)

let recovery s make =
  let r, samples = Lazy.force s.recovery in
  let open Sciera.Exp_recovery in
  make ~samples
    ~headline:
      [
        ("trials", float_of_int r.trials);
        ("healed_median_s", r.healed.median_s);
        ("baseline_median_s", r.baseline.median_s);
        ("healed_p90_s", r.healed.p90_s);
        ("healed_back_on_preferred", r.healed.returned_to_preferred);
        ("baseline_back_on_preferred", r.baseline.returned_to_preferred);
        ("revocations", float_of_int r.revocations);
        ("evicted_paths", float_of_int r.evicted_paths);
        ("reprobes", float_of_int r.reprobes);
      ]
    ~claims:[]
    (fun b -> print_recovery b r)

let pathmon s make =
  let r, samples = Lazy.force s.pathmon in
  let open Sciera.Exp_pathmon in
  make ~samples
    ~headline:
      [
        ("trials", float_of_int r.trials);
        ("adaptive_median_degraded_s", r.adaptive.median_degraded_s);
        ("static_median_degraded_s", r.static_.median_degraded_s);
        ("adaptive_p90_degraded_s", r.adaptive.p90_degraded_s);
        ("adaptive_median_inflation", r.adaptive.median_inflation);
        ("static_median_inflation", r.static_.median_inflation);
        ("adaptive_back_on_preferred", r.adaptive.returned_to_preferred);
        ("soft_switches", float_of_int r.adaptive.soft_switches);
        ("probes", float_of_int r.adaptive.probes);
      ]
    ~claims:
      [
        ( "adaptive median degraded < static",
          r.adaptive.median_degraded_s < r.static_.median_degraded_s );
      ]
    (fun b -> print_pathmon b r)

let scaling s make =
  let r = Lazy.force s.scaling in
  let open Sciera.Exp_scaling in
  let slug label = String.map (fun c -> if c = '-' then '_' else c) label in
  let per_row =
    List.concat_map
      (fun w ->
        let key k = Printf.sprintf "%s_%s" (slug w.label) k in
        [
          (key "ases", float_of_int w.ases);
          (key "reachable_pct", w.reachable_pct);
          (key "delivered_pct", w.delivered_pct);
          (key "mean_paths", w.mean_paths);
          (key "mean_stretch", w.mean_stretch);
          (key "events", float_of_int w.events);
          (key "peak_state_bytes", float_of_int w.peak_state_bytes);
          (key "beacon_sends", float_of_int w.beacon_sends);
        ])
      r.rows
  in
  make ~samples:[]
    ~headline:
      (("sizes", float_of_int (List.length sizes))
      :: ("pairs_per_size", float_of_int pairs_per_size)
      :: per_row)
    ~claims:
      (List.concat_map
         (fun w ->
           [
             (w.label ^ ": reachable_pct > 90", w.reachable_pct > 90.0);
             (w.label ^ ": delivered_pct > 80", w.delivered_pct > 80.0);
           ])
         r.rows)
    (fun b -> print_scaling b r)

let load s make =
  let r, samples = Lazy.force s.load in
  let open Sciera.Exp_load in
  let slug s = String.map (fun ch -> if ch = '-' then '_' else ch) s in
  let per_cell =
    List.concat_map
      (fun c ->
        let key k =
          Printf.sprintf "%s_%s_%s_%s" (slug c.c_scale)
            (slug (arm_name c.c_arm))
            (slug (Table.fmt_float c.c_load))
            k
        in
        [
          (key "goodput_mbps", c.c_goodput_mbps);
          (key "p99_fct_s", c.c_p99_fct_s);
          (key "reject_pct", c.c_reject_pct);
          (key "fg_drop_pct", c.c_fg_drop_pct);
        ])
      r.cells
  in
  make ~samples
    ~headline:
      (("loads", float_of_int (List.length loads))
      :: ("cell_duration_s", duration_s)
      :: ("mp_goodput_gain", r.mp_goodput_gain)
      :: ("mp_p99_fct_ratio", r.mp_p99_fct_ratio)
      :: per_cell)
    ~claims:
      (("mp_goodput_gain >= 1", r.mp_goodput_gain >= 1.0)
      :: ( "mp_p99_fct_ratio finite and > 0",
           Float.is_finite r.mp_p99_fct_ratio && r.mp_p99_fct_ratio > 0.0 )
      :: List.concat_map
           (fun c ->
             let cell =
               Printf.sprintf "%s/%s/%s" c.c_scale (arm_name c.c_arm) (Table.fmt_float c.c_load)
             in
             [
               (cell ^ ": goodput <= offered", c.c_goodput_mbps <= c.c_offered_mbps +. 1e-6);
               (cell ^ ": completed > 0", c.c_completed > 0);
             ])
           r.cells)
    (fun b -> print_load b r)

let containment s make =
  let r = Lazy.force s.adversary in
  let open Sciera.Exp_adversary in
  let slug s = String.map (fun ch -> if ch = '-' then '_' else ch) s in
  let per_cell =
    List.concat_map
      (fun c ->
        let key k =
          Printf.sprintf "%s_%s_%s_%s" (slug (attack_name c.c_attack)) (slug c.c_scale)
            (if c.c_defended then "on" else "off")
            k
        in
        [ (key "blast", blast_scalar c); (key "contain_s", c.c_contain_s) ])
      r.cells
  in
  make ~samples:[]
    ~headline:
      (("classes_contained", float_of_int r.classes_contained)
      :: ("quarantine_events", float_of_int r.quarantine_events)
      :: ("quarantine_drops", float_of_int r.quarantine_drops)
      :: ("scmp_suppressed", float_of_int r.scmp_suppressed)
      :: ("poisoned_revocations", float_of_int r.poisoned_revocations)
      :: ("rotations", float_of_int r.rotations)
      :: per_cell)
    ~claims:[ ("classes_contained >= 4", r.classes_contained >= 4) ]
    (fun b -> print_containment b r)

(* --- The figure table: EXPERIMENTS.md summary-table order ------------ *)

(* A runner reads its dataset from the session and hands [make], already
   applied to the figure's id and title, the dataset's stack-level samples,
   the headline and the report printer. *)
let artefacts =
  [
    ("table1", "Table 1: SCIERA PoPs and collaborating networks", table1);
    ("fig3", "Figure 3: deployment timeline and per-AS effort", fig3);
    ("fig4", "Figure 4: end-host bootstrapping latency per platform", fig4);
    ("table2", "Table 2: hinting mechanisms vs network environment", table2);
    ("app_effort", "Section 5.2: application enablement effort", app_effort);
    ("fig5", "Figure 5: SCION vs IP RTT distributions", fig5);
    ("fig6", "Figure 6: per-pair RTT ratio CDF", fig6);
    ("fig7", "Figure 7: RTT ratio over time", fig7);
    ("fig8", "Figure 8: maximum active paths per AS pair", fig8);
    ("fig9", "Figure 9: median deviation from maximum paths", fig9);
    ("fig10a", "Figure 10a: latency inflation CDF", fig10a);
    ("fig10b", "Figure 10b: path disjointness CDF", fig10b);
    ("fig10c", "Figure 10c: connectivity under link failure", fig10c);
    ("survey", "Section 5.6: operator survey", survey);
    ("isd_evolution", "Section 3.3: ISD evolution blast radius", isd);
    ("recovery", "Self-healing: time to recover from link failure", recovery);
    ("pathmon", "Pathmon: adaptive vs static selection under soft degradation", pathmon);
    ("scaling", "Scaling: synthetic Topogen meshes vs the 29-AS deployment", scaling);
    ( "load",
      "Load: goodput and FCT vs offered load — multipath vs single-path endpoints",
      load );
    ( "containment",
      "Containment: adversarial chaos — blast radius and time to containment",
      containment );
  ]

let ids = List.map (fun (id, _, _) -> id) artefacts

let run session id =
  match List.find_opt (fun (i, _, _) -> String.equal i id) artefacts with
  | Some (_, title, runner) -> runner session (make ~id ~title)
  | None -> invalid_arg (Printf.sprintf "Evidence.run: unknown figure %S" id)
