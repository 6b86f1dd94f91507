(** Section 5.3, Figure 3 and Appendix C — the SCIERA deployment timeline
    with a per-AS effort model: Wright learning curve per deployment kind
    plus a flat reduction once the SCION Orchestrator is available. *)

type kind = Core_backbone | Nren_attach | Campus_vlan | Reused_circuit

type event = {
  who : string;
  as_str : string;
  date : string;
  kind : kind;
  note : string;
}

val timeline : event list
(** The 22 deployments of Figure 3 in chronological order. *)

type scored = { event : event; effort : float }

val scored_timeline : scored list
val print_fig3 : unit -> unit
