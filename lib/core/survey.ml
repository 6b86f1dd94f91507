(* Section 5.6: the operator survey — 8 anonymous respondents, 20 questions
   over deployment experience, CAPEX and OPEX. The per-respondent answers
   are a dataset constructed to be consistent with every aggregate the
   paper reports; the aggregation pipeline below computes those aggregates
   from the raw answers, so the analysis code is exercised end to end. *)

type role = Network_engineer | Researcher

type setup_duration = Within_one_month | Up_to_six_months | Longer

type opex_assessment = Lower | Comparable | Slightly_higher

type respondent = {
  id : int;
  role : role;
  decade_plus_experience : bool;
  setup : setup_duration;
  delay_cause : string;
  vendor_support_needed : bool;  (** During deployment. *)
  hardware_usd : int;
  licensing_usd : int;  (** 0 for pure open-source + L2 setups. *)
  extra_hiring : bool;
  personnel_usd : int;
  opex : opex_assessment;
  cost_drivers : string list;
  workload_fraction : float;  (** Share of overall operational workload. *)
  vendor_contacts_per_year : int;
}

let respondents =
  [
    { id = 1; role = Network_engineer; decade_plus_experience = true; setup = Within_one_month;
      delay_cause = "none"; vendor_support_needed = false; hardware_usd = 6500; licensing_usd = 0;
      extra_hiring = false; personnel_usd = 0; opex = Comparable;
      cost_drivers = [ "hardware maintenance"; "staff workload" ]; workload_fraction = 0.05;
      vendor_contacts_per_year = 1 };
    { id = 2; role = Researcher; decade_plus_experience = false; setup = Within_one_month;
      delay_cause = "none"; vendor_support_needed = false; hardware_usd = 4000; licensing_usd = 0;
      extra_hiring = false; personnel_usd = 0; opex = Lower;
      cost_drivers = [ "staff workload" ]; workload_fraction = 0.04; vendor_contacts_per_year = 0 };
    { id = 3; role = Network_engineer; decade_plus_experience = true; setup = Within_one_month;
      delay_cause = "none"; vendor_support_needed = true; hardware_usd = 18000;
      licensing_usd = 12000; extra_hiring = false; personnel_usd = 0; opex = Comparable;
      cost_drivers = [ "hardware maintenance"; "monitoring and troubleshooting" ];
      workload_fraction = 0.08; vendor_contacts_per_year = 3 };
    { id = 4; role = Researcher; decade_plus_experience = true; setup = Up_to_six_months;
      delay_cause = "L2 circuit provisioning across multiple networks"; vendor_support_needed = false;
      hardware_usd = 7000; licensing_usd = 0; extra_hiring = false; personnel_usd = 0;
      opex = Comparable; cost_drivers = [ "hardware maintenance" ]; workload_fraction = 0.06;
      vendor_contacts_per_year = 1 };
    { id = 5; role = Network_engineer; decade_plus_experience = false; setup = Up_to_six_months;
      delay_cause = "L2 circuit provisioning across multiple networks"; vendor_support_needed = true;
      hardware_usd = 25000; licensing_usd = 20000; extra_hiring = true; personnel_usd = 20000;
      opex = Slightly_higher; cost_drivers = [ "staff workload"; "hardware maintenance" ];
      workload_fraction = 0.09; vendor_contacts_per_year = 5 };
    { id = 6; role = Researcher; decade_plus_experience = false; setup = Up_to_six_months;
      delay_cause = "L2 circuit provisioning across multiple networks"; vendor_support_needed = false;
      hardware_usd = 9000; licensing_usd = 0; extra_hiring = false; personnel_usd = 0; opex = Lower;
      cost_drivers = [ "power consumption" ]; workload_fraction = 0.03; vendor_contacts_per_year = 0 };
    { id = 7; role = Network_engineer; decade_plus_experience = true; setup = Up_to_six_months;
      delay_cause = "hardware delivery"; vendor_support_needed = true; hardware_usd = 21000;
      licensing_usd = 8000; extra_hiring = true; personnel_usd = 20000; opex = Slightly_higher;
      cost_drivers = [ "staff workload"; "monitoring and troubleshooting" ];
      workload_fraction = 0.15; vendor_contacts_per_year = 4 };
    { id = 8; role = Researcher; decade_plus_experience = false; setup = Longer;
      delay_cause = "L2 circuit provisioning across multiple networks"; vendor_support_needed = false;
      hardware_usd = 5500; licensing_usd = 0; extra_hiring = false; personnel_usd = 0; opex = Lower;
      cost_drivers = [ "hardware maintenance" ]; workload_fraction = 0.04;
      vendor_contacts_per_year = 1 };
  ]

let pct p =
  let n = List.length respondents in
  let k = List.length (List.filter p respondents) in
  100.0 *. float_of_int k /. float_of_int n

type aggregates = {
  n : int;
  decade_plus : float;
  engineers : float;
  setup_within_month : float;
  setup_within_six_months : float;
  deployed_without_vendor : float;
  hardware_under_20k : float;
  no_licensing : float;
  no_hiring : float;
  opex_comparable_or_lower : float;
  maintenance_driver : float;
  staff_driver : float;
  monitoring_driver : float;
  power_driver : float;
  workload_under_10 : float;
  vendor_under_3_per_year : float;
}

let aggregates =
  {
    n = List.length respondents;
    decade_plus = pct (fun r -> r.decade_plus_experience);
    engineers = pct (fun r -> r.role = Network_engineer);
    setup_within_month = pct (fun r -> r.setup = Within_one_month);
    setup_within_six_months = pct (fun r -> r.setup = Up_to_six_months);
    deployed_without_vendor = pct (fun r -> not r.vendor_support_needed);
    hardware_under_20k = pct (fun r -> r.hardware_usd < 20000);
    no_licensing = pct (fun r -> r.licensing_usd = 0);
    no_hiring = pct (fun r -> not r.extra_hiring);
    opex_comparable_or_lower = pct (fun r -> r.opex <> Slightly_higher);
    maintenance_driver = pct (fun r -> List.mem "hardware maintenance" r.cost_drivers);
    staff_driver = pct (fun r -> List.mem "staff workload" r.cost_drivers);
    monitoring_driver = pct (fun r -> List.mem "monitoring and troubleshooting" r.cost_drivers);
    power_driver = pct (fun r -> List.mem "power consumption" r.cost_drivers);
    workload_under_10 = pct (fun r -> r.workload_fraction < 0.10);
    vendor_under_3_per_year = pct (fun r -> r.vendor_contacts_per_year < 3);
  }

let print_survey b =
  let a = aggregates in
  Printf.bprintf b "== Section 5.6: operator survey (n=%d) ==\n" a.n;
  let row label v paper = [ label; Printf.sprintf "%.1f%%" v; paper ] in
  Buffer.add_string b (Scion_util.Table.render ~header:[ "question"; "measured"; "paper" ]
    ~rows:
      [
        row "over a decade of experience" a.decade_plus "50%";
        row "hands-on network engineers" a.engineers "50%";
        row "native setup within one month" a.setup_within_month "37.5%";
        row "setup within six months" a.setup_within_six_months "50%";
        row "deployed software without vendor support" a.deployed_without_vendor "62.5%";
        row "hardware spend < 20k USD" a.hardware_under_20k "75%";
        row "no licensing costs (open source + L2)" a.no_licensing "62.5%";
        row "no additional hiring or training" a.no_hiring "75%";
        row "OPEX comparable or lower" a.opex_comparable_or_lower "75%";
        row "cost driver: hardware maintenance" a.maintenance_driver "62.5%";
        row "cost driver: staff workload" a.staff_driver "50%";
        row "cost driver: monitoring/troubleshooting" a.monitoring_driver "25%";
        row "cost driver: power" a.power_driver "12.5%";
        row "SCIERA tasks < 10% of workload" a.workload_under_10 "87.5%";
        row "vendor support < 3x per year" a.vendor_under_3_per_year "62.5%";
      ]);
  Printf.bprintf b "primary delay cause: %s\n\n"
    (let causes = List.map (fun r -> r.delay_cause) respondents in
     let l2 = List.length (List.filter (fun c -> c = "L2 circuit provisioning across multiple networks") causes) in
     Printf.sprintf "L2 circuit provisioning (%d of %d delayed deployments)" l2
       (List.length (List.filter (fun r -> r.setup <> Within_one_month) respondents)))
