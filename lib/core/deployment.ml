(* Section 5.3, Figure 3 and Appendix C: the SCIERA deployment timeline and
   per-AS deployment effort. Dates and the qualitative effort narrative are
   data from the paper; the effort model turns the narrative into numbers:
   a base cost per deployment kind, multiplied by a learning-curve factor
   (each prior deployment of the same kind makes the next one cheaper) and
   reduced once the SCION Orchestrator (Section 4.4) is available. *)

type kind =
  | Core_backbone  (** New core AS incl. hardware procurement (GEANT, KISTI). *)
  | Nren_attach  (** NREN-facilitated site over existing NREN circuits. *)
  | Campus_vlan  (** Institution needing multi-party VLAN negotiation. *)
  | Reused_circuit  (** Rides VLANs that already exist. *)

let kind_to_string = function
  | Core_backbone -> "core backbone"
  | Nren_attach -> "NREN attach"
  | Campus_vlan -> "campus VLANs"
  | Reused_circuit -> "reused circuit"

type event = {
  who : string;
  as_str : string;
  date : string;  (** YYYY-MM as in Figure 3. *)
  kind : kind;
  note : string;
}

(* Figure 3 plus the Appendix C narrative. *)
let timeline =
  [
    { who = "GEANT"; as_str = "71-20965"; date = "2022-06"; kind = Core_backbone;
      note = "hardware procurement + MoU; first production BR in GVA" };
    { who = "SWITCH"; as_str = "71-559"; date = "2022-09"; kind = Reused_circuit;
      note = "already experienced from ISD 64" };
    { who = "SIDN Labs"; as_str = "71-1140"; date = "2023-03"; kind = Nren_attach;
      note = "was on SCIONLab; two new VLANs" };
    { who = "BRIDGES"; as_str = "71-2:0:35"; date = "2023-03"; kind = Core_backbone;
      note = "hardware + 1.5 months of VLAN troubleshooting to GEANT" };
    { who = "UVa"; as_str = "71-225"; date = "2023-03"; kind = Campus_vlan;
      note = "first customer AS; range of VLANs, time-sync and path-expiry issues" };
    { who = "Equinix"; as_str = "71-2:0:48"; date = "2023-05"; kind = Campus_vlan;
      note = "cross-connect in Ashburn; no-signal troubleshooting" };
    { who = "Cybexer"; as_str = "71-2:0:49"; date = "2023-07"; kind = Nren_attach;
      note = "two GEANT Plus links via EENet" };
    { who = "Princeton"; as_str = "71-88"; date = "2023-08"; kind = Campus_vlan;
      note = "four parties: BRIDGES, Internet2, NJEdge, Princeton" };
    { who = "OVGU"; as_str = "71-2:0:42"; date = "2023-08"; kind = Nren_attach;
      note = "GEANT Plus via DFN" };
    { who = "Demokritos"; as_str = "71-2546"; date = "2023-09"; kind = Nren_attach;
      note = "GEANT Plus via GRNet" };
    { who = "SEC"; as_str = "71-2:0:18"; date = "2023-10"; kind = Campus_vlan;
      note = "VXLAN over SingAREN (no native VLAN possible)" };
    { who = "KISTI CHG"; as_str = "71-2:0:3f"; date = "2023-10"; kind = Core_backbone;
      note = "reinstalling SCIONLab nodes with production stack" };
    { who = "KISTI DJ"; as_str = "71-2:0:3b"; date = "2024-05"; kind = Core_backbone;
      note = "limited management access; VLANs coordinated with SingAREN" };
    { who = "KISTI AMS"; as_str = "71-2:0:3e"; date = "2024-05"; kind = Core_backbone;
      note = "" };
    { who = "KISTI SG"; as_str = "71-2:0:3d"; date = "2024-08"; kind = Core_backbone;
      note = "" };
    { who = "UFMS"; as_str = "71-2:0:5c"; date = "2024-08"; kind = Nren_attach;
      note = "VLAN trigger from GEANT side already routine" };
    { who = "CCDCoE"; as_str = "71-203311"; date = "2024-09"; kind = Reused_circuit;
      note = "reused Cybexer's EENet VLANs" };
    { who = "KAUST"; as_str = "71-50999"; date = "2025-03"; kind = Campus_vlan;
      note = "long hardware delivery" };
    { who = "RNP"; as_str = "71-1916"; date = "2025-04"; kind = Nren_attach;
      note = "considerably less effort than earlier comparable setups" };
    { who = "KISTI HK"; as_str = "71-2:0:3c"; date = "2025-04"; kind = Core_backbone;
      note = "routine by now" };
    { who = "KISTI STL"; as_str = "71-2:0:40"; date = "2025-04"; kind = Core_backbone;
      note = "" };
    { who = "NUS"; as_str = "71-2:0:61"; date = "2025-06"; kind = Nren_attach;
      note = "straightforward over SingAREN Open Exchange" };
  ]

let base_effort = function
  | Core_backbone -> 100.0
  | Campus_vlan -> 70.0
  | Nren_attach -> 40.0
  | Reused_circuit -> 15.0

let orchestrator_available date = date >= "2024-01"

(* Learning curve: the n-th deployment of a kind costs base * n^(log2 r)
   with r the per-doubling retention — the classic Wright model; we use
   r = 0.75 (25% cheaper per doubling of experience), plus a flat 40%
   reduction once the orchestrator automates setup and management. *)
let learning_rate = 0.75

type scored = { event : event; effort : float }

let scored_timeline =
  let counts = Hashtbl.create 8 in
  List.map
    (fun e ->
      let n = 1 + Scion_util.Table.find_or ~default:0 counts e.kind in
      Hashtbl.replace counts e.kind n;
      let curve = Float.pow (float_of_int n) (Float.log learning_rate /. Float.log 2.0) in
      let automation = if orchestrator_available e.date then 0.6 else 1.0 in
      { event = e; effort = base_effort e.kind *. curve *. automation })
    timeline

let print_fig3 b =
  Printf.bprintf b "== Figure 3: SCIERA deployment and estimated effort over time ==\n";
  Buffer.add_string b (Scion_util.Table.render
    ~header:[ "date"; "site"; "AS"; "kind"; "effort"; "note" ]
    ~rows:
      (List.map
         (fun s ->
           [
             s.event.date;
             s.event.who;
             s.event.as_str;
             kind_to_string s.event.kind;
             Printf.sprintf "%.0f" s.effort;
             s.event.note;
           ])
         scored_timeline));
  (* The paper's headline: first-of-kind deployments cost the most and
     subsequent ones get cheaper. *)
  let first_last kind =
    let of_kind = List.filter (fun s -> s.event.kind = kind) scored_timeline in
    match (of_kind, List.rev of_kind) with
    | first :: _, last :: _ -> Some (first.effort, last.effort)
    | _ -> None
  in
  List.iter
    (fun kind ->
      match first_last kind with
      | Some (first, last) ->
          Printf.bprintf b "%-15s first %.0f -> latest %.0f (%.0f%% cheaper)\n" (kind_to_string kind)
            first last
            (100.0 *. (first -. last) /. first)
      | None -> ())
    [ Core_backbone; Campus_vlan; Nren_attach; Reused_circuit ];
  Printf.bprintf b "\n"
