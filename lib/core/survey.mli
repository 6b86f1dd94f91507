(** Section 5.6 — the operator survey: 8 respondents, with the aggregation
    pipeline computing every percentage the paper reports from the raw
    answers. *)

type role = Network_engineer | Researcher
type setup_duration = Within_one_month | Up_to_six_months | Longer
type opex_assessment = Lower | Comparable | Slightly_higher

type respondent = {
  id : int;
  role : role;
  decade_plus_experience : bool;
  setup : setup_duration;
  delay_cause : string;
  vendor_support_needed : bool;
  hardware_usd : int;
  licensing_usd : int;
  extra_hiring : bool;
  personnel_usd : int;
  opex : opex_assessment;
  cost_drivers : string list;
  workload_fraction : float;
  vendor_contacts_per_year : int;
}

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

val aggregates : aggregates
val print_survey : unit -> unit
