module Ia = Scion_addr.Ia
module Rng = Scion_util.Rng
module Cert = Scion_cppki.Cert
module Mesh = Scion_controlplane.Mesh

type region = Europe | North_america | Asia | South_america | Africa | Middle_east

let region_to_string = function
  | Europe -> "Europe"
  | North_america -> "North America"
  | Asia -> "Asia"
  | South_america -> "South America"
  | Africa -> "Africa"
  | Middle_east -> "Middle East"

type tier = Tier1 | Tier2 | Tier3

let tier_to_string = function Tier1 -> "Tier1" | Tier2 -> "Tier2" | Tier3 -> "Tier3"

type as_info = {
  ia : Ia.t;
  name : string;
  region : region;
  tier : tier;
  core : bool;
  ca : bool;
  profile : Cert.profile;
  measurement_point : bool;
  pop : string;
}

type link_info = {
  a : Ia.t;
  b : Ia.t;
  cls : Mesh.link_class;
  latency_ms : float;
  jitter_ms : float;
  label : string;
}

type params = {
  n_ases : int;
  n_isds : int;
  cores_per_isd : int;
  core_chord_prob : float;
  attach_degree : int;
  tier2_fraction : float;
}

type t = { gen_params : params; ases : as_info list; links : link_info list }

let regions_all = [| Europe; North_america; Asia; South_america; Africa; Middle_east |]

(* Parent candidates deeper than this never acquire children, bounding the
   parent-link depth of every leaf (and with it the beaconing rounds a
   sweep needs) regardless of N. *)
let max_parent_depth = 5

let validate p =
  let pos name v =
    if v <= 0 then invalid_arg (Printf.sprintf "Topogen: %s must be > 0 (got %d)" name v)
  in
  pos "n_ases" p.n_ases;
  pos "n_isds" p.n_isds;
  pos "cores_per_isd" p.cores_per_isd;
  pos "attach_degree" p.attach_degree;
  let prob name v =
    if Float.is_nan v || v < 0.0 || v > 1.0 then
      invalid_arg (Printf.sprintf "Topogen: %s must be in [0, 1] (got %g)" name v)
  in
  prob "core_chord_prob" p.core_chord_prob;
  prob "tier2_fraction" p.tier2_fraction;
  let cores = p.n_isds * p.cores_per_isd in
  if p.n_ases < cores then
    invalid_arg
      (Printf.sprintf "Topogen: n_ases = %d is below the %d cores (%d ISDs x %d)" p.n_ases cores
         p.n_isds p.cores_per_isd)

let default ~n_ases =
  let p =
    {
      n_ases;
      n_isds = max 2 (min 6 (1 + (n_ases / 150)));
      cores_per_isd = 3;
      core_chord_prob = 0.35;
      attach_degree = 2;
      tier2_fraction = 0.15;
    }
  in
  validate p;
  p

(* Mutable per-AS state during growth; [g_children] is the BA weight. *)
type gnode = {
  g_ia : Ia.t;
  g_isd : int;
  g_tier : tier;
  g_core : bool;
  g_depth : int;
  mutable g_children : int;
}

(* Weighted pick over candidate indices: weight = children + 1, the classic
   BA "rich get richer" kernel with additive smoothing so fresh Tier2 ASes
   are reachable too. *)
let pick_parent rng ~(node : int -> gnode) candidates ~exclude =
  let eligible = List.filter (fun i -> not (List.mem i exclude)) candidates in
  match eligible with
  | [] -> None
  | _ ->
      let total = List.fold_left (fun acc i -> acc + (node i).g_children + 1) 0 eligible in
      let r = Rng.int rng total in
      let rec walk acc = function
        | [] -> None
        | [ i ] -> Some i
        | i :: rest ->
            let acc = acc + (node i).g_children + 1 in
            if r < acc then Some i else walk acc rest
      in
      walk 0 eligible

let generate ~seed p =
  validate p;
  let rng = Rng.of_label seed "topogen" in
  let pick_region ~base =
    if Rng.float rng 1.0 < 0.85 then base else regions_all.(Rng.int rng (Array.length regions_all))
  in
  let pick_profile () = if Rng.float rng 1.0 < 0.3 then Cert.Proprietary else Cert.Open_source in
  let n_cores = p.n_isds * p.cores_per_isd in
  let nodes = Array.make p.n_ases None in
  let n_nodes = ref 0 in
  let ases = ref [] in
  let core_links = ref [] in
  let pc_links = ref [] in
  let next_asn = Array.make (p.n_isds + 1) 1 in
  let add_node ~isd ~tier ~core ~ca ~depth =
    let asn = next_asn.(isd) in
    next_asn.(isd) <- asn + 1;
    let ia = Ia.make isd asn in
    let idx = !n_nodes in
    nodes.(idx) <- Some { g_ia = ia; g_isd = isd; g_tier = tier; g_core = core; g_depth = depth; g_children = 0 };
    incr n_nodes;
    let base = regions_all.((isd - 1) mod Array.length regions_all) in
    let region = pick_region ~base in
    ases :=
      {
        ia;
        name = Printf.sprintf "S%d-%d" isd asn;
        region;
        tier;
        core;
        ca;
        profile = pick_profile ();
        measurement_point = (not core) && (idx - n_cores) mod 16 = 0;
        pop = Printf.sprintf "PoP %d-%d" isd asn;
      }
      :: !ases;
    idx
  in
  let node idx =
    match nodes.(idx) with
    | Some n -> n
    | None -> invalid_arg "Topogen.generate: internal node index out of range"
  in
  (* --- Core backbone: per-ISD rings + chords, inter-ISD ring + chords --- *)
  let cores_of = Array.make (p.n_isds + 1) [] in
  for isd = 1 to p.n_isds do
    let ids = List.init p.cores_per_isd (fun i -> add_node ~isd ~tier:Tier1 ~core:true ~ca:(i = 0) ~depth:0) in
    cores_of.(isd) <- ids
  done;
  let core_edge ~label i j ~intra =
    let lat = if intra then 4.0 +. Rng.float rng 16.0 else 40.0 +. Rng.float rng 50.0 in
    core_links :=
      {
        a = (node i).g_ia;
        b = (node j).g_ia;
        cls = Mesh.Core_link;
        latency_ms = lat;
        jitter_ms = Float.max 0.1 (lat *. 0.03);
        label;
      }
      :: !core_links
  in
  for isd = 1 to p.n_isds do
    let ids = Array.of_list cores_of.(isd) in
    let k = Array.length ids in
    (* Ring. *)
    if k = 2 then core_edge ~label:(Printf.sprintf "core ring %d" isd) ids.(0) ids.(1) ~intra:true
    else if k > 2 then
      for i = 0 to k - 1 do
        core_edge ~label:(Printf.sprintf "core ring %d" isd) ids.(i) ids.((i + 1) mod k) ~intra:true
      done;
    (* Density chords between non-adjacent pairs. *)
    for i = 0 to k - 1 do
      for j = i + 2 to k - 1 do
        if not (i = 0 && j = k - 1) && Rng.float rng 1.0 < p.core_chord_prob then
          core_edge ~label:(Printf.sprintf "core chord %d" isd) ids.(i) ids.(j) ~intra:true
      done
    done
  done;
  let first_core isd =
    match cores_of.(isd) with
    | i :: _ -> i
    | [] -> invalid_arg (Printf.sprintf "Topogen.generate: ISD %d has no core" isd)
  in
  if p.n_isds = 2 then core_edge ~label:"inter-ISD core" (first_core 1) (first_core 2) ~intra:false
  else if p.n_isds > 2 then
    for isd = 1 to p.n_isds do
      core_edge ~label:"inter-ISD core" (first_core isd)
        (first_core ((isd mod p.n_isds) + 1))
        ~intra:false
    done;
  for i = 1 to p.n_isds do
    for j = i + 2 to p.n_isds do
      if not (i = 1 && j = p.n_isds) && Rng.float rng 1.0 < p.core_chord_prob /. 2.0 then begin
        (* A chord lands on a random core of each side. *)
        let ci = Rng.pick rng (Array.of_list cores_of.(i)) in
        let cj = Rng.pick rng (Array.of_list cores_of.(j)) in
        core_edge ~label:"inter-ISD chord" ci cj ~intra:false
      end
    done
  done;
  (* --- Preferential attachment of the non-core ASes --- *)
  let candidates = Array.make (p.n_isds + 1) [] in
  for isd = 1 to p.n_isds do
    candidates.(isd) <- List.rev cores_of.(isd)
  done;
  for _leaf = 1 to p.n_ases - n_cores do
    let isd = 1 + Rng.int rng p.n_isds in
    let tier = if Rng.float rng 1.0 < p.tier2_fraction then Tier2 else Tier3 in
    let degree = min p.attach_degree (List.length candidates.(isd)) in
    let parents = ref [] in
    for _ = 1 to degree do
      match pick_parent rng ~node candidates.(isd) ~exclude:!parents with
      | Some i -> parents := i :: !parents
      | None -> ()
    done;
    let parents = List.rev !parents in
    let depth =
      1 + List.fold_left (fun acc i -> min acc (node i).g_depth) max_int parents
    in
    let idx = add_node ~isd ~tier ~core:false ~ca:false ~depth in
    List.iter
      (fun pi ->
        let parent = node pi in
        parent.g_children <- parent.g_children + 1;
        let lat =
          if parent.g_core then 2.0 +. Rng.float rng 12.0 else 1.0 +. Rng.float rng 8.0
        in
        pc_links :=
          {
            a = parent.g_ia;
            b = (node idx).g_ia;
            cls = Mesh.Parent_child;
            latency_ms = lat;
            jitter_ms = Float.max 0.1 (lat *. 0.04);
            label = Printf.sprintf "attach %s" (tier_to_string tier);
          }
          :: !pc_links)
      parents;
    if tier = Tier2 && depth <= max_parent_depth then
      candidates.(isd) <- candidates.(isd) @ [ idx ]
  done;
  { gen_params = p; ases = List.rev !ases; links = List.rev !core_links @ List.rev !pc_links }

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "topogen n=%d isds=%d cores/isd=%d chord=%.3f m=%d t2=%.3f\n" t.gen_params.n_ases
       t.gen_params.n_isds t.gen_params.cores_per_isd t.gen_params.core_chord_prob
       t.gen_params.attach_degree t.gen_params.tier2_fraction);
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "A %s %s %s %s core=%b ca=%b %s mp=%b\n" (Ia.to_string a.ia) a.name
           (region_to_string a.region) (tier_to_string a.tier) a.core a.ca
           (match a.profile with Cert.Proprietary -> "prop" | Cert.Open_source -> "oss")
           a.measurement_point))
    t.ases;
  List.iter
    (fun l ->
      Buffer.add_string buf
        (Printf.sprintf "L %s %s %s %.3f %.3f %s\n" (Ia.to_string l.a) (Ia.to_string l.b)
           (match l.cls with
           | Mesh.Core_link -> "core"
           | Mesh.Parent_child -> "pc"
           | Mesh.Peering -> "peer")
           l.latency_ms l.jitter_ms l.label))
    t.links;
  Buffer.contents buf

let core_count t = List.length (List.filter (fun a -> a.core) t.ases)

(* Depth over parent-child links: links are emitted parents-first, so one
   forward pass suffices. *)
let depth_table t =
  let tbl = Hashtbl.create (List.length t.ases) in
  List.iter (fun a -> if a.core then Hashtbl.replace tbl a.ia 0) t.ases;
  List.iter
    (fun l ->
      match l.cls with
      | Mesh.Core_link | Mesh.Peering -> ()
      | Mesh.Parent_child -> (
          match Hashtbl.find_opt tbl l.a with
          | None -> ()
          | Some d -> (
              let cand = d + 1 in
              match Hashtbl.find_opt tbl l.b with
              | Some existing when existing <= cand -> ()
              | Some _ | None -> Hashtbl.replace tbl l.b cand)))
    t.links;
  tbl

let max_depth t =
  let tbl = depth_table t in
  List.fold_left
    (fun acc a -> match Hashtbl.find_opt tbl a.ia with Some d -> max acc d | None -> acc)
    0 t.ases
