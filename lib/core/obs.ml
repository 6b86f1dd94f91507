(* Glue between the generic netsim hook and the telemetry subsystem: one
   bundle holding a metrics registry and a tracer, plus wiring helpers for
   the link fabrics. netsim itself has no telemetry dependency; link events
   flow through Net.set_monitor. *)

module M = Telemetry.Metrics
module Trace = Telemetry.Trace
module Net = Netsim.Net

type t = { registry : M.registry; trace : Trace.t }

let create () = { registry = M.create (); trace = Trace.create () }
let registry t = t.registry
let trace t = t.trace

(* Serialisation-wait buckets in seconds: microseconds to one second. *)
let wait_buckets = [ 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0 ]

let wire_fabric t ~name net =
  let base = [ ("net", name) ] in
  let counter ?(extra = []) metric = M.counter t.registry ~labels:(base @ extra) metric in
  let tx_packets = counter "net.tx_packets" in
  let tx_bytes = counter "net.tx_bytes" in
  let rx_packets = counter "net.rx_packets" in
  let rx_bytes = counter "net.rx_bytes" in
  let drop_down = counter ~extra:[ ("cause", "link_down") ] "net.dropped" in
  let drop_loss = counter ~extra:[ ("cause", "random_loss") ] "net.dropped" in
  (* Queue drops only exist on capacity-armed links; the counter is
     created lazily on the first such drop so fabrics that never arm
     capacity keep their historic snapshot byte-identical. *)
  let drop_queue = lazy (counter ~extra:[ ("cause", "queue_full") ] "net.dropped") in
  let wait = M.histogram t.registry ~labels:base ~buckets:wait_buckets "net.serialisation_wait_s" in
  Net.set_monitor net (function
    | Net.Tx { size_bytes; wait_s; _ } ->
        M.inc tx_packets;
        M.add tx_bytes size_bytes;
        M.observe wait wait_s
    | Net.Rx { size_bytes; _ } ->
        M.inc rx_packets;
        M.add rx_bytes size_bytes
    | Net.Drop { cause = Net.Link_down; _ } -> M.inc drop_down
    | Net.Drop { cause = Net.Random_loss; _ } -> M.inc drop_loss
    | Net.Drop { cause = Net.Queue_full; _ } -> M.inc (Lazy.force drop_queue))

let samples t = M.snapshot t.registry
let snapshot_json t = Telemetry.Export.to_json t.registry
let render t = Telemetry.Export.render t.registry
