(* Golden evidence for every figure and table of EXPERIMENTS.md: the
   rendered result table in canonical text plus a telemetry snapshot
   scoped to that figure's run, both byte-stable for the fixed seeds.

   Figures that share a dataset (the connectivity campaign behind
   Figures 5-7, the epoch sweep behind Figures 8-10b) share one memoised
   run per process — the stack-level samples are identical across those
   figures by construction, and each figure adds its own
   [exp.<figure>.<key>] headline gauges on top.

   There are two scales, [evidence] and [full] below. Evidence scale is
   deliberately smaller than the full EXPERIMENTS.md run so the tier-1
   golden suite stays fast: 4 simulated days of multiping instead of 20
   (the shape claims survive, the wall-clock drops ~5x) and 25
   link-failure runs instead of 100. The multipath sweep keeps its full
   per_origin = 16 at both scales: fewer origins would drop the best pair
   below the paper's ">100 paths" claim. *)

module M = Telemetry.Metrics
module Export = Telemetry.Export
module Log = Telemetry.Log
module Table = Scion_util.Table

type t = { id : string; title : string; table : string; metrics : string }

(* --- Scale (documented in EXPERIMENTS.md, "Recording") --------------- *)

type scale = {
  connectivity_days : float;
  resilience_runs : int;
  recovery_trials : int;
  pathmon_trials : int;
  scaling_sizes : int list;
  adversary_topogen : int;
  load_loads : float list;
  load_duration : float;
  load_topogen : int;
}

let evidence =
  {
    connectivity_days = 4.0;
    resilience_runs = 25;
    recovery_trials = 12;
    pathmon_trials = 10;
    scaling_sizes = [ 100; 300; 1000 ];
    adversary_topogen = 300;
    load_loads = [ 0.3; 0.6; 1.0; 1.5 ];
    load_duration = 20.0;
    load_topogen = 300;
  }

let full =
  {
    connectivity_days = 20.0;
    resilience_runs = 100;
    recovery_trials = 40;
    pathmon_trials = 30;
    scaling_sizes = [ 100; 300; 1000; 3000 ];
    adversary_topogen = 600;
    load_loads = [ 0.3; 0.6; 1.0; 1.5; 2.0 ];
    load_duration = 45.0;
    load_topogen = 600;
  }

let current_scale = ref evidence
let scale_read = ref false

(* Every scale-dependent dataset reads its size through here, so
   [use_full_scale] can tell that one has been memoised. *)
let scale () =
  scale_read := true;
  !current_scale

(* Opting into full scale after a dataset has been memoised would silently
   mix scales within one process, so it is a programming error. *)
let use_full_scale () =
  if !scale_read then
    invalid_arg "Evidence.use_full_scale: a dataset is already memoised at evidence scale";
  current_scale := full

(* --- Memoised datasets ------------------------------------------------ *)

(* A dataset run against a fresh telemetry bundle, paired with the
   stack-level samples it recorded. *)
let observed run =
  lazy
    (let obs = Sciera.Obs.create () in
     let r = run obs in
     (r, Sciera.Obs.samples obs))

let connectivity =
  observed (fun telemetry ->
      Sciera.Exp_connectivity.run ~days:(scale ()).connectivity_days ~telemetry ())

let multipath = observed (fun telemetry -> Sciera.Exp_multipath.run ~telemetry ())

let resilience =
  observed (fun telemetry ->
      Sciera.Exp_resilience.run ~runs:(scale ()).resilience_runs ~telemetry ())

let recovery_data =
  observed (fun telemetry ->
      Sciera.Exp_recovery.run ~trials:(scale ()).recovery_trials ~telemetry ())

let pathmon_data =
  observed (fun telemetry ->
      Sciera.Exp_pathmon.run ~trials:(scale ()).pathmon_trials ~telemetry ())

(* No stack telemetry: the mesh registers per-AS labelled series (beacon
   stores, border routers), which at N=1000 would explode the metrics
   snapshot. Scale observability flows through Mesh accessors into the
   rows and headline gauges instead. *)
let scaling_data = lazy (Sciera.Exp_scaling.run ~sizes:(scale ()).scaling_sizes ())

(* Stack telemetry only for the 29-AS mesh (the topogen-scale mesh inside
   the experiment stays telemetry-less — per-AS series, as for scaling). *)
let load_data =
  observed (fun telemetry ->
      let s = scale () in
      Sciera.Exp_load.run ~loads:s.load_loads ~duration_s:s.load_duration
        ~topogen_ases:s.load_topogen ~telemetry ())

(* Runs LAST in figure order and keeps its meshes telemetry-less for the
   same per-AS-series reason as scaling; the [exp.adversary.*] aggregate
   counters flow through a private Obs bundle instead. Running last also
   means its (adversarial) use of the process-wide signature cache cannot
   reorder any earlier figure's hit/miss sequence. *)
let adversary_data =
  observed (fun telemetry ->
      Sciera.Exp_adversary.run ~topogen_ases:(scale ()).adversary_topogen ~telemetry ())

let bootstrap = observed (fun telemetry -> Sciera.Exp_bootstrap.run ~telemetry ())
let isd_evolution = observed (fun telemetry -> Sciera.Exp_isd_evolution.run ~telemetry ())

(* --- Assembly --------------------------------------------------------- *)

let sample_key (s : M.sample) = (s.M.sample_name, s.M.sample_labels)

let headline_table headline =
  Table.render ~header:[ "headline"; "value" ]
    ~rows:(List.map (fun (k, v) -> [ k; Table.fmt_float v ]) headline)

(* [headline] becomes both the table footer (rendered with the canonical
   %.6g of Table.fmt_float) and one exp.<id>.<key> gauge per entry in the
   metrics snapshot, merged with the dataset's stack-level samples. *)
let make ~id ~title ~samples:stack_samples ~headline print =
  let reg = M.create () in
  (* scion-lint: allow telemetry-registry -- exp.<id>.<key> gauges are scoped to one figure's private registry and pinned by the checked-in goldens, not the tree-wide registry *)
  List.iter (fun (k, v) -> M.set (M.gauge reg (Printf.sprintf "exp.%s.%s" id k)) v) headline;
  let all = List.sort (fun a b -> compare (sample_key a) (sample_key b)) (stack_samples @ M.snapshot reg) in
  let body, () = Log.capture_report print in
  let table =
    Printf.sprintf "== %s ==\n%s-- headline (canonical %%.6g floats) --\n%s" title body
      (headline_table headline)
  in
  { id; title; table; metrics = Export.samples_to_json all }

(* --- Per-figure runners ----------------------------------------------- *)

let print_table1 () =
  Table.print ~header:[ "Location"; "Peering NRENs"; "Partner Networks" ]
    ~rows:(List.map (fun (a, b, c) -> [ a; b; c ]) Sciera.Topology.pops);
  Log.out "%d ASes in the modelled deployment, %d Layer-2 links\n"
    (List.length Sciera.Topology.ases)
    (List.length Sciera.Topology.links)

let table1 make =
  make ~samples:[]
    ~headline:
      [
        ("pops", float_of_int (List.length Sciera.Topology.pops));
        ("ases", float_of_int (List.length Sciera.Topology.ases));
        ("links", float_of_int (List.length Sciera.Topology.links));
      ]
    print_table1

let fig3 make =
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
    print_fig3

let fig4 make =
  let r, samples = Lazy.force bootstrap in
  let per_os =
    List.map
      (fun (s : Sciera.Exp_bootstrap.os_summary) ->
        ( String.lowercase_ascii (Scion_endhost.Bootstrap.os_name s.os) ^ "_total_median_ms",
          s.total.Scion_util.Stats.med ))
      r.Sciera.Exp_bootstrap.per_os
  in
  make ~samples
    ~headline:
      (("runs_per_mechanism", float_of_int r.Sciera.Exp_bootstrap.runs_per_mechanism)
      :: ("all_medians_under_ms", r.Sciera.Exp_bootstrap.all_medians_under_ms)
      :: per_os)
    (fun () -> Sciera.Exp_bootstrap.print_fig4 r)

let table2 make =
  make ~samples:[]
    ~headline:[ ("mechanisms", float_of_int (List.length Scion_endhost.Hints.all)) ]
    Sciera.Exp_bootstrap.print_table2

let app_effort make =
  let total =
    List.fold_left (fun acc c -> acc + c.Sciera.App_effort.loc_delta) 0 Sciera.App_effort.cases
  in
  make ~samples:[]
    ~headline:
      [
        ("cases", float_of_int (List.length Sciera.App_effort.cases));
        ("total_loc_delta", float_of_int total);
      ]
    Sciera.App_effort.print_app_effort

let fig5 make =
  let r, samples = Lazy.force connectivity in
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
    (fun () -> print_fig5 r)

let fig6 make =
  let r, samples = Lazy.force connectivity in
  let open Sciera.Exp_connectivity in
  make ~samples
    ~headline:
      [
        ("pairs", float_of_int (List.length r.pair_ratios));
        ("frac_pairs_faster_on_scion", r.frac_pairs_faster_on_scion);
        ("frac_pairs_inflation_le_25pct", r.frac_pairs_inflation_le_25pct);
      ]
    (fun () -> print_fig6 r)

let fig7 make =
  let r, samples = Lazy.force connectivity in
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
    (fun () -> print_fig7 r)

let fig8 make =
  let r, samples = Lazy.force multipath in
  let open Sciera.Exp_multipath in
  let _, _, best = r.best_pair in
  make ~samples
    ~headline:
      [ ("min_paths", float_of_int r.min_paths); ("best_pair_paths", float_of_int best) ]
    (fun () -> print_fig8 r)

let fig9 make =
  let r, samples = Lazy.force multipath in
  let open Sciera.Exp_multipath in
  let maxdev =
    Array.fold_left (fun acc row -> Array.fold_left max acc row) 0 r.median_deviation
  in
  make ~samples
    ~headline:[ ("max_median_deviation", float_of_int maxdev) ]
    (fun () -> print_fig9 r)

let fig10a make =
  let r, samples = Lazy.force multipath in
  let open Sciera.Exp_multipath in
  make ~samples
    ~headline:
      [
        ("frac_inflation_close_to_1", r.frac_inflation_close_to_1);
        ("frac_inflation_le_1_2", r.frac_inflation_le_1_2);
      ]
    (fun () -> print_fig10a r)

let fig10b make =
  let r, samples = Lazy.force multipath in
  let open Sciera.Exp_multipath in
  make ~samples
    ~headline:
      [
        ("frac_fully_disjoint", r.frac_fully_disjoint);
        ("frac_disjointness_ge_0_7", r.frac_disjointness_ge_0_7);
      ]
    (fun () -> print_fig10b r)

let fig10c make =
  let r, samples = Lazy.force resilience in
  let open Sciera.Exp_resilience in
  let m20, s20 = connectivity_at r 0.2 in
  make ~samples
    ~headline:
      [
        ("runs", float_of_int r.runs);
        ("multipath_at_20pct", m20);
        ("singlepath_at_20pct", s20);
      ]
    (fun () -> print_fig10c r)

let survey make =
  let a = Sciera.Survey.aggregates in
  make ~samples:[]
    ~headline:
      [
        ("respondents", float_of_int a.Sciera.Survey.n);
        ("setup_within_month_pct", a.Sciera.Survey.setup_within_month);
        ("opex_comparable_or_lower_pct", a.Sciera.Survey.opex_comparable_or_lower);
        ("workload_under_10_pct", a.Sciera.Survey.workload_under_10);
      ]
    Sciera.Survey.print_survey

let isd make =
  let r, samples = Lazy.force isd_evolution in
  let open Sciera.Exp_isd_evolution in
  make ~samples
    ~headline:
      [
        ("single_avg_blast", r.single_avg_blast);
        ("regional_avg_blast", r.regional_avg_blast);
        ("regional_domains", float_of_int (List.length r.regional_domains));
      ]
    (fun () -> print_report r)

let recovery make =
  let r, samples = Lazy.force recovery_data in
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
    (fun () -> print_recovery r)

let pathmon make =
  let r, samples = Lazy.force pathmon_data in
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
    (fun () -> print_pathmon r)

let scaling make =
  let r = Lazy.force scaling_data in
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
      (("sizes", float_of_int (List.length r.sizes))
      :: ("pairs_per_size", float_of_int r.pairs_per_size)
      :: per_row)
    (fun () -> print_scaling r)

let load make =
  let r, samples = Lazy.force load_data in
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
      (("loads", float_of_int (List.length r.loads))
      :: ("cell_duration_s", r.duration_s)
      :: ("mp_goodput_gain", r.mp_goodput_gain)
      :: ("mp_p99_fct_ratio", r.mp_p99_fct_ratio)
      :: per_cell)
    (fun () -> print_load r)

let containment make =
  let r, samples = Lazy.force adversary_data in
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
  make ~samples
    ~headline:
      (("classes_contained", float_of_int r.classes_contained)
      :: ("quarantine_events", float_of_int r.quarantine_events)
      :: ("quarantine_drops", float_of_int r.quarantine_drops)
      :: ("scmp_suppressed", float_of_int r.scmp_suppressed)
      :: ("poisoned_revocations", float_of_int r.poisoned_revocations)
      :: ("rotations", float_of_int r.rotations)
      :: per_cell)
    (fun () -> print_containment r)

(* --- The figure table: EXPERIMENTS.md summary-table order ------------ *)

(* A runner computes its figure and hands [make], already applied to the
   figure's id and title, the dataset's stack-level samples, the headline
   and the report printer. *)
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

let figures = List.map (fun (id, title, _) -> (id, title)) artefacts
let ids = List.map fst figures

let run id =
  match List.find_opt (fun (i, _, _) -> String.equal i id) artefacts with
  | Some (_, title, runner) -> runner (make ~id ~title)
  | None -> invalid_arg (Printf.sprintf "Evidence.run: unknown figure %S" id)
