module Ia = Scion_addr.Ia
module Stats = Scion_util.Stats
module Table = Scion_util.Table

type pair_ratio = { pr_src : Ia.t; pr_dst : Ia.t; ratio : float }

type result = {
  dataset : Multiping.dataset;
  raw_scion_pings : int;
  raw_ip_pings : int;
  scion_rtts : float array;
  ip_rtts : float array;
  scion_median : float;
  ip_median : float;
  scion_p90 : float;
  ip_p90 : float;
  pair_ratios : pair_ratio list;
  frac_pairs_faster_on_scion : float;
  frac_pairs_inflation_le_25pct : float;
  timeseries : (float * float) list;
}

let run ~telemetry =
  let net = Network.create ~per_origin:8 ~telemetry () in
  let raw = Multiping.run net () in
  let ds = Multiping.excluded_ip_majority raw in
  let scion_rtts =
    Array.of_list (List.filter_map (fun s -> s.Multiping.scion_rtt) ds.Multiping.samples)
  in
  let ip_rtts =
    Array.of_list (List.filter_map (fun s -> s.Multiping.ip_rtt) ds.Multiping.samples)
  in
  (* Per-pair mean ratios over the whole window (Figure 6's statistic). *)
  let by_pair = Hashtbl.create 512 in
  List.iter
    (fun (s : Multiping.sample) ->
      let key = Ia.to_string s.Multiping.src ^ ">" ^ Ia.to_string s.Multiping.dst in
      let sc, ip, n =
        match Hashtbl.find_opt by_pair key with
        | Some acc -> acc
        | None -> (0.0, 0.0, 0)
      in
      match (s.Multiping.scion_rtt, s.Multiping.ip_rtt) with
      | Some a, Some b ->
          Hashtbl.replace by_pair key (sc +. a, ip +. b, n + 1);
          ignore (s.Multiping.src, s.Multiping.dst)
      | _ -> ())
    ds.Multiping.samples;
  let pair_ratios =
    Scion_util.Table.fold_sorted
      (fun key (sc, ip, n) acc ->
        if n = 0 || ip <= 0.0 then acc
        else begin
          match String.split_on_char '>' key with
          | [ a; b ] ->
              { pr_src = Ia.of_string a; pr_dst = Ia.of_string b; ratio = sc /. ip } :: acc
          | _ -> acc
        end)
      by_pair []
  in
  let nratios = float_of_int (List.length pair_ratios) in
  let frac p = float_of_int (List.length (List.filter p pair_ratios)) /. Float.max 1.0 nratios in
  (* Figure 7: per half-day bucket, the median over pairs of the bucket's
     per-pair ratio of mean RTTs. *)
  let bucket_of s = Float.round (s.Multiping.day /. 0.5) *. 0.5 in
  let buckets = Hashtbl.create 64 in
  List.iter
    (fun (s : Multiping.sample) ->
      match (s.Multiping.scion_rtt, s.Multiping.ip_rtt) with
      | Some a, Some b ->
          let key =
            ( bucket_of s,
              Ia.to_string s.Multiping.src ^ ">" ^ Ia.to_string s.Multiping.dst )
          in
          let sc, ip, n =
            match Hashtbl.find_opt buckets key with Some acc -> acc | None -> (0.0, 0.0, 0)
          in
          Hashtbl.replace buckets key (sc +. a, ip +. b, n + 1)
      | _ -> ())
    ds.Multiping.samples;
  let per_bucket = Hashtbl.create 64 in
  Scion_util.Table.iter_sorted
    (fun (bucket, _) (sc, ip, n) ->
      if n > 0 && ip > 0.0 then begin
        let existing = match Hashtbl.find_opt per_bucket bucket with Some l -> l | None -> [] in
        Hashtbl.replace per_bucket bucket ((sc /. ip) :: existing)
      end)
    buckets;
  let timeseries =
    Scion_util.Table.fold_sorted
      (fun bucket ratios acc -> (bucket, Stats.median (Array.of_list ratios)) :: acc)
      per_bucket []
    |> List.sort compare
  in
  {
    dataset = ds;
    raw_scion_pings = raw.Multiping.scion_pings;
    raw_ip_pings = raw.Multiping.ip_pings;
    scion_rtts;
    ip_rtts;
    scion_median = Stats.median scion_rtts;
    ip_median = Stats.median ip_rtts;
    scion_p90 = Stats.percentile scion_rtts 90.0;
    ip_p90 = Stats.percentile ip_rtts 90.0;
    pair_ratios;
    frac_pairs_faster_on_scion = frac (fun r -> r.ratio < 1.0);
    frac_pairs_inflation_le_25pct = frac (fun r -> r.ratio <= 1.25);
    timeseries;
  }

let print_cdf b name values =
  let cdf = Stats.resample_cdf (Stats.cdf values) 15 in
  Printf.bprintf b "%s\n" name;
  Buffer.add_string b (Table.render ~header:[ "RTT (ms)"; "P(X<=x)" ]
    ~rows:(List.map (fun (v, f) -> [ Table.fmt_ms v; Table.fmt_pct f ]) cdf))

let print_fig5 b r =
  Printf.bprintf b "== Figure 5: CDF of ping latency for SCION and IP ==\n";
  Printf.bprintf b "pings kept: %d SCION, %d IP (raw: %d / %d)\n" r.dataset.Multiping.scion_pings
    r.dataset.Multiping.ip_pings r.raw_scion_pings r.raw_ip_pings;
  print_cdf b "SCION RTT CDF:" r.scion_rtts;
  print_cdf b "IP RTT CDF:" r.ip_rtts;
  Printf.bprintf b "median: SCION %.1f ms vs IP %.1f ms (%.1f%% reduction; paper: 149.8 vs 160.9, 6.9%%)\n"
    r.scion_median r.ip_median
    (100.0 *. (r.ip_median -. r.scion_median) /. r.ip_median);
  Printf.bprintf b "p90:    SCION %.1f ms vs IP %.1f ms (%.1f%% reduction; paper: 287 vs 376, 23.7%%)\n\n"
    r.scion_p90 r.ip_p90
    (100.0 *. (r.ip_p90 -. r.scion_p90) /. r.ip_p90)

let print_fig6 b r =
  Printf.bprintf b "== Figure 6: CDF of RTT ratio (SCION / IP) per AS pair ==\n";
  let ratios = Array.of_list (List.map (fun p -> p.ratio) r.pair_ratios) in
  let cdf = Stats.resample_cdf (Stats.cdf ratios) 15 in
  Buffer.add_string b (Table.render ~header:[ "ratio"; "P(X<=x)" ]
    ~rows:(List.map (fun (v, f) -> [ Table.fmt_ratio v; Table.fmt_pct f ]) cdf));
  Printf.bprintf b "pairs with lower latency over SCION: %s (paper: ~38%%)\n"
    (Table.fmt_pct r.frac_pairs_faster_on_scion);
  Printf.bprintf b "pairs with <= 25%% inflation:         %s (paper: ~80%%)\n"
    (Table.fmt_pct r.frac_pairs_inflation_le_25pct);
  let outliers =
    List.filter (fun p -> p.ratio > 2.0) r.pair_ratios
    |> List.sort (fun a b -> compare b.ratio a.ratio)
  in
  Printf.bprintf b "outliers (ratio > 2.0), as annotated in the paper's figure:\n";
  List.iter
    (fun p ->
      Printf.bprintf b "  %-14s -> %-14s ratio %.2f\n" (Topology.name_of p.pr_src)
        (Topology.name_of p.pr_dst) p.ratio)
    (List.filteri (fun i _ -> i < 8) outliers);
  Printf.bprintf b "\n"

let print_fig7 b r =
  Printf.bprintf b "== Figure 7: SCION/IP RTT ratio over time ==\n";
  Buffer.add_string b (Table.render ~header:[ "day"; "median ratio" ]
    ~rows:(List.map (fun (d, v) -> [ Printf.sprintf "%.1f" d; Table.fmt_ratio v ]) r.timeseries));
  let values = Array.of_list (List.map snd r.timeseries) in
  if Array.length values > 0 then begin
    let lo, hi = Stats.min_max values in
    Printf.bprintf b
      "range %.3f..%.3f — maintenance spike near day 3 (Jan 21), stabilisation after day 7 (Jan 25), upgrade spike near day 19 (Feb 6)\n\n"
      lo hi
  end
