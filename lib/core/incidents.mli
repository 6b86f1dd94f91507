(** The operational calendar of the 20-day measurement window (Section 5.4
    and the annotations of Figures 6, 7 and 9).

    The paper's measurement campaign (mid-January to early February 2025)
    overlapped several real incidents, which this module encodes so the
    connectivity study can reproduce the figures' features:

    - the {b KREONET Daejeon–Singapore direct link} was unavailable for a
      long stretch (submarine-cable trouble), detouring that pair around
      the globe (Fig. 6 outlier, Fig. 9's median deviation of 16);
    - {b BRIDGES} experienced routing instabilities, inflating RTTs for
      UVa/Princeton/Equinix (Fig. 6 outliers, Fig. 9 deviation for
      UVa-Equinix);
    - {b UFMS–Equinix} traffic detoured through GEANT because the
      RNP–BRIDGES circuit was not yet carrying SCION (Fig. 6 outlier);
    - {b Jan 21} maintenance affected several links (Fig. 7 spike),
      followed by days of fluctuation;
    - {b Jan 25}: new EU–US links came up, stabilising the RTT ratio;
    - {b Feb 6}: node upgrades and link maintenance caused a second spike. *)

type effect =
  | Link_down of { a : Scion_addr.Ia.t; b : Scion_addr.Ia.t; label : string option }
      (** Take down the link(s) between two ASes; [label] selects one of
          several parallel circuits, [None] means all of them. *)
  | Link_degraded of {
      a : Scion_addr.Ia.t;
      b : Scion_addr.Ia.t;
      label : string option;
      extra_ms : float;
    }

type incident = {
  title : string;
  from_day : float;  (** Day offset within the window (fractional). *)
  to_day : float;
  effect : effect;
}

val window_days : float
(** 20 days. *)

val window_start_unix : float
(** 2025-01-18T00:00Z — day 0 of the window. *)

val calendar : incident list
val active_at : float -> incident list
(** Incidents in effect at the given day offset. *)

val change_points : float list
(** Sorted distinct day offsets at which the set of active incidents
    changes (including 0 and [window_days]) — the epochs at which the
    control plane re-converges. *)

(** {1 The compiled calendar}

    The only place an incident's (a, b, label) is matched to links. *)

val day_seconds : float

type state = { up : bool; extra_ms : float }

type timeline
(** Per-link state over days; link ids are positions in the link list. *)

val compile : incident list -> Topology.link_info list -> timeline
(** An incident hits the links between its endpoints (either order) with
    its label, if it names one, and is active on [\[from_day, to_day)]. A
    link is down while any hit is active, and its [extra_ms] sums the
    active degradations in list order from [0.]. *)

val state_at : timeline -> Netsim.Net.link_id -> float -> state
(** Raises [Invalid_argument] on an unknown link. *)

val replay : timeline -> origin_day:float -> Fault.Scenario.t
(** A scenario with one event per state change of each link (from [up],
    [0.] ms): [Link_down]/[Link_up], then [Extra_latency] with the summed
    latency. Day [d] fires at [max 0 ((d - origin_day) * day_seconds)]
    seconds; simultaneous changes fire in ascending link id order. *)

val jan21 : Fault.Scenario.t
(** The Jan 21 maintenance replay (day 3): the transatlantic GEANT link,
    the GEANT Singapore link and the KREONET SG–AMS ring segment go down
    and come back over the maintenance window, scenario time 0 = day 3. *)

val feb6 : Fault.Scenario.t
(** The Feb 6 node-upgrade replay (day 19): the KREONET AMS–CHG ring
    segment outage plus the transatlantic and GEANT@AMS latency
    degradations, scenario time 0 = day 19. *)
