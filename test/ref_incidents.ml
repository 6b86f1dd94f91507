(* Reference replays of the incident calendar for the fault suites, built
   from nothing but Incidents' public interface.

   [replay] reads a compiled calendar back through [Incidents.state_at] on
   every start and end day of the incidents and emits one event per state
   change of each link, in day order: [Link_down]/[Link_up], then
   [Extra_latency] with the summed latency. [span_replay] is the replay
   compiler from before the calendar was compiled per link: every incident
   becomes set-then-clear spans on each link its endpoints and label
   name. *)

module Incidents = Sciera.Incidents
module Topology = Sciera.Topology
module Scenario = Fault.Scenario

let at_s ~origin_day d = Float.max 0.0 ((d -. origin_day) *. Incidents.day_seconds)

let replay incidents links ~origin_day =
  let timeline = Incidents.compile incidents links in
  let days =
    List.sort_uniq Float.compare
      (List.concat_map (fun (i : Incidents.incident) -> [ i.from_day; i.to_day ]) incidents)
  in
  let changes link =
    let _, events =
      List.fold_left
        (fun ((prev : Incidents.state), acc) d ->
          let st = Incidents.state_at timeline link d in
          let ops =
            (if st.up = prev.up then []
             else [ (if st.up then Scenario.Link_up link else Scenario.Link_down link) ])
            @
            if Float.equal st.extra_ms prev.extra_ms then []
            else [ Scenario.Extra_latency { link; ms = st.extra_ms } ]
          in
          (st, if ops = [] then acc else Scenario.at (at_s ~origin_day d) ops :: acc))
        ({ Incidents.up = true; extra_ms = 0.0 }, [])
        days
    in
    List.rev events
  in
  Scenario.seq (List.concat (List.init (List.length links) changes))

let links_between ?label a b =
  List.concat
    (List.mapi
       (fun idx (l : Topology.link_info) ->
         if
           ((Scion_addr.Ia.equal a l.Topology.a && Scion_addr.Ia.equal b l.Topology.b)
           || (Scion_addr.Ia.equal a l.Topology.b && Scion_addr.Ia.equal b l.Topology.a))
           && match label with None -> true | Some lb -> lb = l.Topology.label
         then [ idx ]
         else [])
       Topology.links)

let scenario_of_incident ~origin_day (i : Incidents.incident) =
  let from_s = at_s ~origin_day i.Incidents.from_day
  and to_s = at_s ~origin_day i.Incidents.to_day in
  let compile (a, b, label) f = Scenario.seq (List.map f (links_between ?label a b)) in
  match i.Incidents.effect with
  | Incidents.Link_down { a; b; label } ->
      compile (a, b, label) (fun link -> Scenario.outage ~link ~from_s ~to_s)
  | Incidents.Link_degraded { a; b; label; extra_ms } ->
      compile (a, b, label) (fun link -> Scenario.window ~link ~from_s ~to_s ~extra_ms)

let span_replay ~origin_day incidents =
  Scenario.seq (List.map (scenario_of_incident ~origin_day) incidents)
