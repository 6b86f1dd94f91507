module Ia = Scion_addr.Ia
module Stats = Scion_util.Stats
module Combinator = Scion_controlplane.Combinator

type result = {
  ases : Ia.t list;
  max_paths : int array array;
  median_deviation : int array array;
  inflation_cdf : Stats.cdf;
  frac_inflation_close_to_1 : float;
  frac_inflation_le_1_2 : float;
  disjointness_cdf : Stats.cdf;
  frac_fully_disjoint : float;
  frac_disjointness_ge_0_7 : float;
  min_paths : int;
  best_pair : Ia.t * Ia.t * int;
}

(* Duration-weighted median of (value, weight) observations. *)
let weighted_median obs =
  let sorted = List.sort compare obs in
  let total = List.fold_left (fun a (_, w) -> a +. w) 0.0 sorted in
  let rec go acc = function
    | [] -> 0
    | (v, w) :: rest -> if acc +. w >= total /. 2.0 then v else go (acc +. w) rest
  in
  go 0.0 sorted

let run ?seed ~telemetry () =
  let net = Network.create ?seed ~per_origin:16 ~telemetry () in
  let ases = Topology.fig8_ases in
  let n = List.length ases in
  let arr = Array.of_list ases in
  (* Epochs: segments between incident change points. *)
  let points = Incidents.change_points in
  let segments =
    let rec pair = function
      | a :: (b :: _ as rest) -> (a, b) :: pair rest
      | [ _ ] | [] -> []
    in
    pair points
  in
  let counts = Array.init n (fun _ -> Array.make n []) in
  let inflations = ref [] in
  let disjointness_samples = ref [] in
  let longest =
    List.fold_left (fun best (a, b) ->
        match best with
        | Some (x, y) when y -. x >= b -. a -> best
        | _ -> Some (a, b))
      None segments
  in
  List.iter
    (fun (d0, d1) ->
      let mid = (d0 +. d1) /. 2.0 in
      Network.set_day net mid;
      let duration = d1 -. d0 in
      let is_longest = match longest with Some (a, b) -> a = d0 && b = d1 | None -> false in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then begin
            let live = Network.live_paths net ~src:arr.(i) ~dst:arr.(j) in
            counts.(i).(j) <- (List.length live, duration) :: counts.(i).(j);
            (* Latency inflation d2/d1 among live paths. *)
            (match
               List.sort_uniq compare (List.map (fun p -> Network.scion_rtt_base net p) live)
             with
            | d1 :: d2 :: _ when d1 > 0.0 -> inflations := (d2 /. d1) :: !inflations
            | _ -> ());
            (* Disjointness over all path pairs, on the longest epoch. *)
            if is_longest then begin
              let a = Array.of_list live in
              let m = Array.length a in
              (* Cap the quadratic pass for very path-rich pairs. *)
              let step = if m > 40 then m / 40 else 1 in
              let k = ref 0 in
              while !k < m do
                let l = ref (!k + step) in
                while !l < m do
                  disjointness_samples := Combinator.disjointness a.(!k) a.(!l) :: !disjointness_samples;
                  l := !l + step
                done;
                k := !k + step
              done
            end
          end
        done
      done)
    segments;
  let max_paths = Array.init n (fun _ -> Array.make n 0) in
  let median_deviation = Array.init n (fun _ -> Array.make n 0) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let obs = counts.(i).(j) in
        let mx = List.fold_left (fun a (c, _) -> max a c) 0 obs in
        max_paths.(i).(j) <- mx;
        median_deviation.(i).(j) <- weighted_median (List.map (fun (c, w) -> (mx - c, w)) obs)
      end
    done
  done;
  let inflations = Array.of_list !inflations in
  let disjointness = Array.of_list !disjointness_samples in
  let frac arr p =
    if Array.length arr = 0 then 0.0
    else
      float_of_int (Array.length (Array.of_list (List.filter p (Array.to_list arr))))
      /. float_of_int (Array.length arr)
  in
  let min_paths = ref max_int and best = ref (arr.(0), arr.(0), 0) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        if max_paths.(i).(j) < !min_paths then min_paths := max_paths.(i).(j);
        let _, _, b = !best in
        if max_paths.(i).(j) > b then best := (arr.(i), arr.(j), max_paths.(i).(j))
      end
    done
  done;
  {
    ases;
    max_paths;
    median_deviation;
    inflation_cdf = Stats.cdf inflations;
    frac_inflation_close_to_1 = frac inflations (fun x -> x <= 1.05);
    frac_inflation_le_1_2 = frac inflations (fun x -> x <= 1.2);
    disjointness_cdf = Stats.cdf disjointness;
    frac_fully_disjoint = frac disjointness (fun x -> x >= 0.999);
    frac_disjointness_ge_0_7 = frac disjointness (fun x -> x >= 0.7);
    min_paths = !min_paths;
    best_pair = !best;
  }

let matrix_rows r m =
  let labels = List.map Ia.to_string r.ases in
  List.mapi
    (fun i src -> src :: List.mapi (fun j _ -> if i = j then "-" else string_of_int m.(i).(j)) labels)
    labels

let print_matrix b r title m =
  Printf.bprintf b "%s\n" title;
  Buffer.add_string b (Scion_util.Table.render
    ~header:("src\\dst" :: List.map Ia.to_string r.ases)
    ~rows:(matrix_rows r m))

let print_fig8 b r =
  Printf.bprintf b "== Figure 8: maximum number of active paths between AS pairs ==\n";
  print_matrix b r "" r.max_paths;
  let src, dst, n = r.best_pair in
  Printf.bprintf b "every pair has >= %d paths (paper: >= 2); richest pair %s -> %s with %d (paper: UVa->UFMS 113)\n\n"
    r.min_paths (Topology.name_of src) (Topology.name_of dst) n

let print_fig9 b r =
  Printf.bprintf b "== Figure 9: median deviation from the maximum number of active paths ==\n";
  print_matrix b r "" r.median_deviation;
  Printf.bprintf b
    "most entries are 0 (paper: same); elevated deviations where the incidents bite: the Equinix row/column (flapping Ashburn cross-connect, the paper's UVa-Equinix/BRIDGES finding) and the Singapore-Amsterdam entries (submarine-cable cut, the paper's DJ-SG finding)\n\n"

let print_fig10a b r =
  Printf.bprintf b "== Figure 10a: CDF of path latency inflation (d2/d1) ==\n";
  Buffer.add_string b (Scion_util.Table.render ~header:[ "inflation"; "P(X<=x)" ]
    ~rows:
      (List.map
         (fun (v, f) -> [ Scion_util.Table.fmt_ratio v; Scion_util.Table.fmt_pct f ])
         (Stats.resample_cdf r.inflation_cdf 12)));
  Printf.bprintf b "pairs with a near-equal alternative (<=1.05): %s (paper: ~40%% at ~1.0)\n"
    (Scion_util.Table.fmt_pct r.frac_inflation_close_to_1);
  Printf.bprintf b "pairs with <= 20%% inflation:                  %s (paper: ~80%%)\n\n"
    (Scion_util.Table.fmt_pct r.frac_inflation_le_1_2)

let print_fig10b b r =
  Printf.bprintf b "== Figure 10b: CDF of path disjointness ==\n";
  Buffer.add_string b (Scion_util.Table.render ~header:[ "disjointness"; "P(X<=x)" ]
    ~rows:
      (List.map
         (fun (v, f) -> [ Scion_util.Table.fmt_ratio v; Scion_util.Table.fmt_pct f ])
         (Stats.resample_cdf r.disjointness_cdf 12)));
  Printf.bprintf b "fully disjoint combinations: %s (paper: ~30%%)\n"
    (Scion_util.Table.fmt_pct r.frac_fully_disjoint);
  Printf.bprintf b "combinations >= 0.7 disjoint: %s (paper: ~80%%)\n\n"
    (Scion_util.Table.fmt_pct r.frac_disjointness_ge_0_7)
