module Ia = Scion_addr.Ia
module Mesh = Scion_controlplane.Mesh
module Cert = Scion_cppki.Cert

type region = Europe | North_america | Asia | South_america | Africa | Middle_east

type tier = Tier1 | Tier2 | Tier3

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

let ia = Ia.of_string

(* Figure 1 of the paper. The AS behind 71-2:0:4a is not identified in the
   text; it is one of the five European vantage points, so we model it as a
   GEANT-attached European PoP (see DESIGN.md). *)
let ases =
  [
    (* --- ISD 71 core ASes (Tier 1) --- *)
    {
      ia = ia "71-20965"; name = "GEANT"; region = Europe; tier = Tier1; core = true; ca = true;
      profile = Cert.Proprietary; measurement_point = true; pop = "Geneva";
    };
    {
      ia = ia "71-2:0:35"; name = "BRIDGES"; region = North_america; tier = Tier1; core = true;
      ca = false; profile = Cert.Open_source; measurement_point = false; pop = "McLean";
    };
    {
      ia = ia "71-2:0:3b"; name = "KISTI DJ"; region = Asia; tier = Tier1; core = true; ca = false;
      profile = Cert.Proprietary; measurement_point = true; pop = "Daejeon";
    };
    {
      ia = ia "71-2:0:3c"; name = "KISTI HK"; region = Asia; tier = Tier1; core = true; ca = false;
      profile = Cert.Proprietary; measurement_point = false; pop = "Hong Kong";
    };
    {
      ia = ia "71-2:0:3d"; name = "KISTI SG"; region = Asia; tier = Tier1; core = true; ca = false;
      profile = Cert.Proprietary; measurement_point = true; pop = "Singapore";
    };
    {
      ia = ia "71-2:0:3e"; name = "KISTI AMS"; region = Europe; tier = Tier1; core = true;
      ca = false; profile = Cert.Proprietary; measurement_point = true; pop = "Amsterdam";
    };
    {
      ia = ia "71-2:0:3f"; name = "KISTI CHG"; region = North_america; tier = Tier1; core = true;
      ca = false; profile = Cert.Proprietary; measurement_point = true; pop = "Chicago";
    };
    {
      ia = ia "71-2:0:40"; name = "KISTI STL"; region = North_america; tier = Tier1; core = true;
      ca = false; profile = Cert.Proprietary; measurement_point = false; pop = "Seattle";
    };
    (* --- European institutions (GEANT children) --- *)
    {
      ia = ia "71-559"; name = "SWITCH"; region = Europe; tier = Tier2; core = false; ca = false;
      profile = Cert.Proprietary; measurement_point = false; pop = "Geneva";
    };
    {
      ia = ia "71-1140"; name = "SIDN Labs"; region = Europe; tier = Tier3; core = false;
      ca = false; profile = Cert.Open_source; measurement_point = true; pop = "Arnhem";
    };
    {
      ia = ia "71-2546"; name = "Demokritos"; region = Europe; tier = Tier3; core = false;
      ca = false; profile = Cert.Open_source; measurement_point = false; pop = "Athens";
    };
    {
      ia = ia "71-2:0:42"; name = "OVGU"; region = Europe; tier = Tier3; core = false; ca = false;
      profile = Cert.Open_source; measurement_point = true; pop = "Magdeburg";
    };
    {
      ia = ia "71-2:0:49"; name = "Cybexer"; region = Europe; tier = Tier3; core = false;
      ca = false; profile = Cert.Open_source; measurement_point = false; pop = "Tallinn";
    };
    {
      ia = ia "71-203311"; name = "CCDCoE"; region = Europe; tier = Tier3; core = false;
      ca = false; profile = Cert.Open_source; measurement_point = false; pop = "Tallinn";
    };
    {
      ia = ia "71-2:0:4a"; name = "EU-PoP"; region = Europe; tier = Tier3; core = false;
      ca = false; profile = Cert.Open_source; measurement_point = true; pop = "Paris";
    };
    (* --- Africa --- *)
    {
      ia = ia "71-37288"; name = "WACREN"; region = Africa; tier = Tier2; core = false;
      ca = false; profile = Cert.Open_source; measurement_point = false; pop = "London";
    };
    (* --- North American institutions (BRIDGES children) --- *)
    {
      ia = ia "71-225"; name = "UVa"; region = North_america; tier = Tier3; core = false;
      ca = false; profile = Cert.Open_source; measurement_point = true; pop = "Charlottesville";
    };
    {
      ia = ia "71-88"; name = "Princeton"; region = North_america; tier = Tier3; core = false;
      ca = false; profile = Cert.Open_source; measurement_point = false; pop = "Princeton";
    };
    {
      ia = ia "71-2:0:48"; name = "Equinix"; region = North_america; tier = Tier3; core = false;
      ca = false; profile = Cert.Proprietary; measurement_point = true; pop = "Ashburn";
    };
    {
      ia = ia "71-398900"; name = "FABRIC"; region = North_america; tier = Tier3; core = false;
      ca = false; profile = Cert.Open_source; measurement_point = false; pop = "RTP";
    };
    (* --- Asian institutions --- *)
    {
      ia = ia "71-2:0:61"; name = "NUS"; region = Asia; tier = Tier3; core = false; ca = false;
      profile = Cert.Open_source; measurement_point = false; pop = "Singapore";
    };
    {
      ia = ia "71-2:0:18"; name = "SEC"; region = Asia; tier = Tier3; core = false; ca = false;
      profile = Cert.Open_source; measurement_point = false; pop = "Singapore";
    };
    {
      ia = ia "71-50999"; name = "KAUST"; region = Middle_east; tier = Tier3; core = false;
      ca = false; profile = Cert.Open_source; measurement_point = false; pop = "Jeddah";
    };
    {
      ia = ia "71-2:0:4d"; name = "Korea University"; region = Asia; tier = Tier3; core = false;
      ca = false; profile = Cert.Open_source; measurement_point = false; pop = "Seoul";
    };
    {
      ia = ia "71-4158"; name = "CityU HK"; region = Asia; tier = Tier3; core = false; ca = false;
      profile = Cert.Open_source; measurement_point = false; pop = "Hong Kong";
    };
    (* --- South America --- *)
    {
      ia = ia "71-1916"; name = "RNP"; region = South_america; tier = Tier2; core = false;
      ca = false; profile = Cert.Open_source; measurement_point = false; pop = "Rio de Janeiro";
    };
    {
      ia = ia "71-2:0:5c"; name = "UFMS"; region = South_america; tier = Tier3; core = false;
      ca = false; profile = Cert.Open_source; measurement_point = true; pop = "Campo Grande";
    };
    (* --- ISD 64 (Swiss ISD, via SWITCH) --- *)
    {
      ia = ia "64-559"; name = "SWITCH (ISD 64)"; region = Europe; tier = Tier1; core = true;
      ca = true; profile = Cert.Proprietary; measurement_point = false; pop = "Zurich";
    };
    {
      ia = ia "64-2:0:9"; name = "ETH Zurich"; region = Europe; tier = Tier3; core = false;
      ca = false; profile = Cert.Open_source; measurement_point = false; pop = "Zurich";
    };
  ]

let core l = (Mesh.Core_link, l)
let pc l = (Mesh.Parent_child, l)

let mk (a, b, (cls, latency_ms), jitter_ms, label) =
  { a = ia a; b = ia b; cls; latency_ms; jitter_ms; label }

(* One-way propagation latencies in ms, set from PoP geography (Table 1).
   For Parent_child links [a] is the parent. The second GEANT-BRIDGES link
   and the KREONET Daejeon-Singapore direct link exist in the topology but
   are toggled by the incident calendar (new EU-US capacity on Jan 25; the
   submarine-cable cut). *)
let links =
  List.map mk
    [
      (* Core mesh *)
      ("71-20965", "71-2:0:35", core 40.0, 1.5, "GEANT transatlantic");
      ("71-20965", "71-2:0:35", core 42.0, 1.5, "GEANT transatlantic B");
      ("71-20965", "71-2:0:35", core 46.0, 1.5, "EU-US capacity (new Jan 25)");
      ("71-20965", "71-2:0:3e", core 2.0, 0.2, "GEANT-KREONET @AMS");
      ("71-20965", "71-2:0:3e", core 3.0, 0.2, "GEANT-KREONET @AMS B");
      ("71-20965", "71-2:0:3d", core 82.0, 2.0, "GEANT Singapore link");
      ("71-2:0:35", "71-2:0:3f", core 10.0, 0.5, "Internet2 McLean-Chicago");
      ("71-2:0:3b", "71-2:0:3c", core 18.0, 0.6, "KREONET ring DJ-HK");
      ("71-2:0:3c", "71-2:0:3d", core 17.0, 0.6, "KREONET ring HK-SG");
      ("71-2:0:3d", "71-2:0:3e", core 85.0, 2.0, "KREONET ring SG-AMS");
      ("71-2:0:3d", "71-2:0:3e", core 80.0, 2.0, "CAE-1 SG-AMS");
      ("71-2:0:3d", "71-2:0:3e", core 88.0, 2.2, "KAUST I SG-AMS");
      ("71-2:0:3d", "71-2:0:3e", core 90.0, 2.2, "KAUST II SG-AMS");
      ("71-2:0:3e", "71-2:0:3f", core 45.0, 1.5, "KREONET ring AMS-CHG");
      ("71-2:0:3e", "71-2:0:3f", core 50.0, 1.5, "AMS-CHG capacity (new Jan 25)");
      ("71-2:0:3f", "71-2:0:40", core 25.0, 0.8, "KREONET ring CHG-STL");
      ("71-2:0:40", "71-2:0:3b", core 62.0, 2.0, "KREONET ring STL-DJ");
      ("71-2:0:3b", "71-2:0:3d", core 38.0, 1.2, "KREONET DJ-SG direct");
      ("71-20965", "64-559", core 5.0, 0.3, "GEANT-SWITCH inter-ISD");
      (* Europe: GEANT children *)
      ("71-20965", "71-559", pc 5.0, 0.3, "GEANT Plus");
      ("71-20965", "71-1140", pc 3.0, 0.3, "GEANT Plus / Netherlight");
      ("71-20965", "71-2546", pc 20.0, 0.8, "GEANT Plus via GRNet");
      ("71-20965", "71-2:0:42", pc 8.0, 0.4, "GEANT Plus via DFN");
      ("71-20965", "71-2:0:49", pc 18.0, 0.7, "GEANT Plus via EENet");
      ("71-20965", "71-203311", pc 18.0, 0.7, "EENet VLANs (reused)");
      ("71-20965", "71-2:0:4a", pc 4.0, 0.3, "GEANT Plus");
      ("71-20965", "71-2:0:4a", pc 6.0, 0.3, "GEANT Plus B");
      ("71-20965", "71-37288", pc 8.0, 0.5, "WACREN@London VLAN A");
      ("71-20965", "71-37288", pc 8.5, 0.5, "WACREN@London VLAN B");
      ("71-20965", "71-1916", pc 95.0, 2.5, "GEANT-RNP VLAN A");
      ("71-20965", "71-1916", pc 97.0, 2.5, "GEANT-RNP VLAN B");
      (* North America: BRIDGES children *)
      ("71-2:0:35", "71-225", pc 8.0, 0.4, "Internet2/MARIA VLAN A");
      ("71-2:0:35", "71-225", pc 8.5, 0.4, "Internet2/MARIA VLAN B");
      ("71-2:0:35", "71-88", pc 6.0, 0.4, "Internet2/NJEdge VLAN A");
      ("71-2:0:35", "71-88", pc 6.5, 0.4, "Internet2/NJEdge VLAN B");
      ("71-2:0:35", "71-2:0:48", pc 1.0, 0.1, "Ashburn cross-connect A");
      ("71-2:0:35", "71-2:0:48", pc 1.5, 0.1, "Ashburn cross-connect B");
      ("71-2:0:35", "71-398900", pc 10.0, 0.5, "FABRIC via Internet2");
      ("71-2:0:35", "71-1916", pc 60.0, 2.0, "Internet2/AtlanticWave");
      (* Asia / Middle East leaves *)
      ("71-2:0:3d", "71-2:0:61", pc 2.0, 0.2, "SingAREN Open Exchange");
      ("71-2:0:3d", "71-2:0:18", pc 3.0, 0.3, "VXLAN over SingAREN");
      ("71-2:0:3d", "71-50999", pc 45.0, 1.5, "KAUST to SG PoP");
      ("71-2:0:3e", "71-50999", pc 50.0, 1.5, "KAUST to AMS PoP");
      ("71-2:0:3b", "71-2:0:4d", pc 2.0, 0.2, "KREONET Daejeon-Seoul");
      ("71-2:0:3c", "71-4158", pc 2.0, 0.2, "HARNET Hong Kong");
      (* South America *)
      ("71-1916", "71-2:0:5c", pc 12.0, 0.6, "RNP Ipe backbone A");
      ("71-1916", "71-2:0:5c", pc 13.0, 0.6, "RNP Ipe backbone B");
      (* ISD 64 *)
      ("64-559", "64-2:0:9", pc 2.0, 0.2, "SWITCH lan");
    ]

let find q = List.find (fun a -> Ia.equal a.ia q) ases

let find_by_name n =
  (* Forgiving match: "SIDN Labs", "sidnlabs" and "sidn-labs" all resolve. *)
  let canon s =
    String.lowercase_ascii s
    |> String.to_seq
    |> Seq.filter (fun c -> c <> ' ' && c <> '-' && c <> '_')
    |> String.of_seq
  in
  List.find_opt (fun a -> canon a.name = canon n) ases

let name_of q = match find q with a -> a.name | exception Not_found -> Ia.to_string q

let measurement_ases =
  List.filter_map (fun a -> if a.measurement_point then Some a.ia else None) ases

let fig8_ases =
  List.map ia
    [
      "71-2:0:5c"; "71-2:0:4a"; "71-2:0:48"; "71-2:0:3f"; "71-2:0:3e"; "71-2:0:3d"; "71-2:0:3b";
      "71-225"; "71-20965";
    ]

(* --- IP baseline overlay --- *)

type ip_hub = { hub_name : string; hub_region : region }

let ip_hubs =
  [
    { hub_name = "EU"; hub_region = Europe };
    { hub_name = "NA-E"; hub_region = North_america };
    { hub_name = "NA-W"; hub_region = North_america };
    { hub_name = "ASIA-E"; hub_region = Asia };
    { hub_name = "ASIA-SE"; hub_region = Asia };
    { hub_name = "SA"; hub_region = South_america };
    { hub_name = "ME"; hub_region = Middle_east };
  ]

(* Inter-hub transit carries the commodity Internet's routing inflation:
   BGP paths between continents are measurably longer than the dedicated
   R&E circuits SCIERA rides (the paper's Section 4.3 notes NSPs even
   reserve bandwidth for SCION), so hub-hub latencies sit ~20%% above the
   corresponding great-circle figures used for the SCION fabric. *)
let ip_hub_links =
  [
    ("EU", "NA-E", 46.0);
    ("NA-E", "NA-W", 34.0);
    ("NA-W", "ASIA-E", 65.0);
    ("ASIA-E", "ASIA-SE", 41.0);
    ("ASIA-SE", "ME", 47.0);
    ("ME", "EU", 52.0);
    ("EU", "ASIA-SE", 92.0);
    ("SA", "NA-E", 61.0);
    ("SA", "EU", 113.0);
  ]

(* Region hubs and tier-scaled access latencies for ASes outside the
   hand-built table (generated topologies): every region homes onto its
   nearest hub, Africa via London like WACREN does. *)
let regional_hub = function
  | Europe -> "EU"
  | North_america -> "NA-E"
  | Asia -> "ASIA-SE"
  | South_america -> "SA"
  | Africa -> "EU"
  | Middle_east -> "ME"

let tier_access_ms = function Tier1 -> 2.0 | Tier2 -> 6.0 | Tier3 -> 12.0

let ip_access_for (a : as_info) =
  match a.name with
  | "GEANT" -> ("EU", 4.0)
  | "BRIDGES" -> ("NA-E", 2.0)
  | "KISTI DJ" -> ("ASIA-E", 2.0)
  | "KISTI HK" -> ("ASIA-SE", 14.0)
  | "KISTI SG" -> ("ASIA-SE", 2.0)
  | "KISTI AMS" -> ("EU", 3.0)
  | "KISTI CHG" -> ("NA-E", 10.0)
  | "KISTI STL" -> ("NA-W", 2.0)
  | "SWITCH" -> ("EU", 3.0)
  | "SIDN Labs" -> ("EU", 2.0)
  | "Demokritos" -> ("EU", 13.0)
  | "OVGU" -> ("EU", 4.0)
  | "Cybexer" -> ("EU", 10.0)
  | "CCDCoE" -> ("EU", 10.0)
  | "EU-PoP" -> ("EU", 2.5)
  | "WACREN" -> ("EU", 10.0)
  | "UVa" -> ("NA-E", 5.0)
  | "Princeton" -> ("NA-E", 4.0)
  | "Equinix" -> ("NA-E", 1.0)
  | "FABRIC" -> ("NA-E", 7.0)
  | "NUS" -> ("ASIA-SE", 1.0)
  | "SEC" -> ("ASIA-SE", 1.5)
  | "KAUST" -> ("ME", 3.0)
  | "Korea University" -> ("ASIA-E", 1.5)
  | "CityU HK" -> ("ASIA-SE", 14.0)
  | "RNP" -> ("SA", 5.0)
  | "UFMS" -> ("SA", 16.0)
  | "SWITCH (ISD 64)" -> ("EU", 3.0)
  | "ETH Zurich" -> ("EU", 3.0)
  | _ -> (regional_hub a.region, tier_access_ms a.tier)


(* --- Instantiable topology descriptions --- *)

type spec = { spec_ases : as_info list; spec_links : link_info list }

let sciera = { spec_ases = ases; spec_links = links }

let region_of_topogen = function
  | Topogen.Europe -> Europe
  | Topogen.North_america -> North_america
  | Topogen.Asia -> Asia
  | Topogen.South_america -> South_america
  | Topogen.Africa -> Africa
  | Topogen.Middle_east -> Middle_east

let tier_of_topogen = function
  | Topogen.Tier1 -> Tier1
  | Topogen.Tier2 -> Tier2
  | Topogen.Tier3 -> Tier3

let of_topogen (g : Topogen.t) =
  {
    spec_ases =
      List.map
        (fun (a : Topogen.as_info) ->
          {
            ia = a.Topogen.ia;
            name = a.Topogen.name;
            region = region_of_topogen a.Topogen.region;
            tier = tier_of_topogen a.Topogen.tier;
            core = a.Topogen.core;
            ca = a.Topogen.ca;
            profile = a.Topogen.profile;
            measurement_point = a.Topogen.measurement_point;
            pop = a.Topogen.pop;
          })
        g.Topogen.ases;
    spec_links =
      List.map
        (fun (l : Topogen.link_info) ->
          {
            a = l.Topogen.a;
            b = l.Topogen.b;
            cls = l.Topogen.cls;
            latency_ms = l.Topogen.latency_ms;
            jitter_ms = l.Topogen.jitter_ms;
            label = l.Topogen.label;
          })
        g.Topogen.links;
  }

(* Table 1 of the paper. *)
let pops =
  [
    ("Amsterdam, NL", "GEANT/KREONET", "Netherlight");
    ("Ashburn, US", "BRIDGES", "Internet2/MARIA");
    ("Chicago, US", "KREONET", "Internet2/StarLight");
    ("Daejeon, KR", "KREONET", "KISTI");
    ("Frankfurt, DE", "GEANT", "");
    ("Geneva, CH", "GEANT", "CERN/SWITCH");
    ("Hong Kong, HK", "KREONET", "CSTNet/HARNET");
    ("Jacksonville, US", "RNP", "Internet2/AtlanticWave");
    ("Jeddah, SA", "GEANT/KREONET", "KAUST");
    ("Lisbon, PT", "GEANT/RNP", "RedCLARA");
    ("London, GB", "GEANT/WACREN", "AfricaConnect");
    ("Madrid, ES", "GEANT/RNP", "RedCLARA");
    ("McLean, US", "BRIDGES", "Internet2/WIX");
    ("Paris, FR", "GEANT", "SWITCH");
    ("Seattle, US", "KREONET", "Internet2/PacificWave");
    ("Singapore, SG", "GEANT/KREONET", "SingAREN");
  ]
