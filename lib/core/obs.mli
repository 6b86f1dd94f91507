(** Observability bundle for a SCIERA simulation: a deterministic metrics
    registry plus a simulated-clock tracer, with wiring helpers that attach
    them to the generic [netsim] link hook ({!Netsim.Net.set_monitor}). The
    same bundle is what {!Network.create}'s [?telemetry] threads through the
    whole stack. *)

type t

val create : unit -> t
val registry : t -> Telemetry.Metrics.registry
val trace : t -> Telemetry.Trace.t

val wire_fabric : t -> name:string -> Netsim.Net.t -> unit
(** Install a link monitor counting [net.tx_packets]/[net.tx_bytes],
    [net.rx_packets]/[net.rx_bytes], [net.dropped{cause}] and the
    [net.serialisation_wait_s] histogram, all labelled [net=<name>].
    Replaces any previously installed monitor on the fabric. *)

val samples : t -> Telemetry.Metrics.sample list
(** Point-in-time sample list of the bundle's registry, in the canonical
    sorted order of {!Telemetry.Metrics.snapshot} — what the evidence
    harness merges with its per-figure headline series. *)

val snapshot_json : t -> string
(** Canonical JSONL snapshot ({!Telemetry.Export.to_json}) — byte-identical
    across reruns of the same seeded simulation. *)

val render : t -> string
(** Human-readable table of every series. *)
