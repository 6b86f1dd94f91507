module Engine = Netsim.Engine

type 'op t = { events : 'op Campaign.event list; mutable fired : int }

let attach ~engine ~apply events =
  let t = { events; fired = 0 } in
  List.iter
    (fun (ev : _ Campaign.event) ->
      Engine.schedule_at engine ~time:ev.at_s (fun () ->
          apply ev.op;
          t.fired <- t.fired + 1))
    events;
  t

let events t = t.events
let fired t = t.fired
