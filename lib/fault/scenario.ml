type op =
  | Link_down of Netsim.Net.link_id
  | Link_up of Netsim.Net.link_id
  | Extra_latency of { link : Netsim.Net.link_id; ms : float }
  | Loss_burst of { link : Netsim.Net.link_id; loss : float }
  | Node_down of Netsim.Net.node
  | Node_up of Netsim.Net.node
  | Control_down
  | Control_up

let op_to_string = function
  | Link_down l -> Printf.sprintf "link %d down" l
  | Link_up l -> Printf.sprintf "link %d up" l
  | Extra_latency { link; ms } -> Printf.sprintf "link %d extra latency %g ms" link ms
  | Loss_burst { link; loss } -> Printf.sprintf "link %d loss burst %g" link loss
  | Node_down n -> Printf.sprintf "node %d down" n
  | Node_up n -> Printf.sprintf "node %d up" n
  | Control_down -> "control service down"
  | Control_up -> "control service up"

include Campaign.Make (struct
  type t = op

  let name = "Scenario"
end)

let flap ?(jitter_s = 0.0) ~link ~start_s ~count ~down_s ~up_s () =
  check_time "flap" start_s;
  check_time "flap" down_s;
  check_time "flap" up_s;
  check_count "flap" count;
  let stretch = jitter "flap" jitter_s in
  fun rng ->
    let rec go i t acc =
      if i >= count then List.rev acc
      else begin
        let down_at = t in
        let up_at = down_at +. down_s +. stretch rng in
        let next = up_at +. up_s +. stretch rng in
        go (i + 1) next
          ({ Campaign.at_s = up_at; op = Link_up link } :: { at_s = down_at; op = Link_down link }
          :: acc)
      end
    in
    go 0 start_s []

let window ~link ~from_s ~to_s ~extra_ms =
  span "window" ~from_s ~to_s
    (Extra_latency { link; ms = extra_ms })
    (Extra_latency { link; ms = 0.0 })

let outage ~link ~from_s ~to_s = span "outage" ~from_s ~to_s (Link_down link) (Link_up link)

let burst ~link ~from_s ~to_s ~loss =
  span "burst" ~from_s ~to_s (Loss_burst { link; loss }) (Loss_burst { link; loss = 0.0 })

let control_up events =
  List.fold_left
    (fun up (e : event) ->
      match e.op with
      | Control_down -> false
      | Control_up -> true
      | Link_down _ | Link_up _ | Extra_latency _ | Loss_burst _ | Node_down _ | Node_up _ -> up)
    true events
