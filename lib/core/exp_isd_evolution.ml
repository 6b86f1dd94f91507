module Ia = Scion_addr.Ia
module Combinator = Scion_controlplane.Combinator

type governance = Current_single_isd | Regional_isds

(* The regional split of Section 3.3: each continent's academic networks
   govern their own TRC and CA. ISD 64 (the Swiss ISD) already exists and
   stays as is in both models. *)
let domain_of gov ia =
  match Topology.find ia with
  | exception Not_found -> "unknown"
  | info -> (
      if ia.Ia.isd = 64 then "ISD 64 (Swiss)"
      else begin
        match gov with
        | Current_single_isd -> "ISD 71 (SCIERA)"
        | Regional_isds -> (
            match info.Topology.region with
            | Topology.Europe -> "SCIERA-EU"
            | Topology.North_america -> "SCIERA-NA"
            | Topology.Asia -> "SCIERA-ASIA"
            | Topology.South_america -> "SCIERA-SA"
            (* WACREN peers in London, KAUST at the SG/AMS PoPs; until their
               regions grow their own cores they would join the nearest
               regional ISD, as the paper's onboarding story suggests. *)
            | Topology.Africa -> "SCIERA-EU"
            | Topology.Middle_east -> "SCIERA-ASIA")
      end)

type scenario = { failed_domain : string; dead_ases : int; pairs_lost : float }

type result = {
  single : scenario list;
  regional : scenario list;
  single_avg_blast : float;
  regional_avg_blast : float;
  regional_domains : (string * int) list;
}

let run ?telemetry () =
  let net = Network.create ~per_origin:6 ~verify_pcbs:false ?telemetry () in
  let all = List.map (fun (a : Topology.as_info) -> a.Topology.ia) Topology.ases in
  let pairs =
    List.concat_map
      (fun a -> List.filter_map (fun b -> if Ia.compare a b < 0 then Some (a, b) else None) all)
      all
  in
  (* A pair survives a dead-AS set if some path avoids every dead AS. *)
  let pair_survives dead (a, b) =
    (not (List.exists (Ia.equal a) dead))
    && (not (List.exists (Ia.equal b) dead))
    && List.exists
         (fun p -> not (List.exists (fun d -> Combinator.contains_ia p d) dead))
         (Network.paths net ~src:a ~dst:b)
  in
  let scenarios gov =
    let domains = List.sort_uniq compare (List.map (domain_of gov) all) in
    List.map
      (fun dom ->
        (* The domain's CA stops issuing: every AS it governs loses its
           short-lived certificate and falls out of the control plane. *)
        let dead = List.filter (fun ia -> domain_of gov ia = dom) all in
        let lost =
          List.length (List.filter (fun pr -> not (pair_survives dead pr)) pairs)
        in
        {
          failed_domain = dom;
          dead_ases = List.length dead;
          pairs_lost = float_of_int lost /. float_of_int (List.length pairs);
        })
      domains
  in
  let single = scenarios Current_single_isd in
  let regional = scenarios Regional_isds in
  let avg l = List.fold_left (fun a s -> a +. s.pairs_lost) 0.0 l /. float_of_int (List.length l) in
  let regional_domains =
    List.map (fun s -> (s.failed_domain, s.dead_ases)) regional
  in
  (match telemetry with
  | None -> ()
  | Some obs ->
      let module M = Telemetry.Metrics in
      let reg = Obs.registry obs in
      let publish governance scenarios =
        List.iter
          (fun s ->
            M.set
              (M.gauge reg
                 ~labels:[ ("domain", s.failed_domain); ("governance", governance) ]
                 "exp.isd.pairs_lost")
              s.pairs_lost)
          scenarios
      in
      publish "single" single;
      publish "regional" regional);
  { single; regional; single_avg_blast = avg single; regional_avg_blast = avg regional; regional_domains }

let print_report b r =
  Printf.bprintf b "== Section 3.3: ISD evolution — fault isolation of regional ISDs ==\n";
  let rows l =
    List.map
      (fun s ->
        [ s.failed_domain; string_of_int s.dead_ases; Scion_util.Table.fmt_pct s.pairs_lost ])
      l
  in
  Printf.bprintf b "CA/TRC incident blast radius, current governance:\n";
  Buffer.add_string b (Scion_util.Table.render
    ~header:[ "failed domain"; "ASes down"; "pairs lost" ]
    ~rows:(rows r.single));
  Printf.bprintf b "\nCA/TRC incident blast radius, regional ISDs (SCIERA-EU/NA/ASIA/SA):\n";
  Buffer.add_string b (Scion_util.Table.render
    ~header:[ "failed domain"; "ASes down"; "pairs lost" ]
    ~rows:(rows r.regional));
  Printf.bprintf b
    "\nmean blast radius: %s (single ISD) -> %s (regional) — the containment the paper expects from regionally scoped ISDs\n\n"
    (Scion_util.Table.fmt_pct r.single_avg_blast)
    (Scion_util.Table.fmt_pct r.regional_avg_blast)
