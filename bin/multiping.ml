(* multiping — run the Section 5.4 measurement campaign from the command
   line and print the summary statistics.

   dune exec bin/multiping.exe -- --days 2 --interval 600 *)

open Cmdliner

let run days interval pings =
  let net = Sciera.Network.create () in
  let config =
    { Sciera.Multiping.default_config with Sciera.Multiping.interval_s = interval; pings_per_interval = pings }
  in
  Printf.printf "running multiping for %.1f simulated days (interval %.0f s, %d pings/interval)...\n%!"
    days interval pings;
  let raw = Sciera.Multiping.run net ~config ~days () in
  let ds = Sciera.Multiping.excluded_ip_majority raw in
  Printf.printf "raw pings: %d SCION, %d IP; kept after exclusion: %d / %d (%d intervals)\n"
    raw.Sciera.Multiping.scion_pings raw.Sciera.Multiping.ip_pings
    ds.Sciera.Multiping.scion_pings ds.Sciera.Multiping.ip_pings raw.Sciera.Multiping.intervals;
  let sc = List.filter_map (fun s -> s.Sciera.Multiping.scion_rtt) ds.Sciera.Multiping.samples in
  let ip = List.filter_map (fun s -> s.Sciera.Multiping.ip_rtt) ds.Sciera.Multiping.samples in
  let stats name l =
    let a = Array.of_list l in
    Printf.printf "%-6s median %.1f ms  p90 %.1f ms  p99 %.1f ms (%d samples)\n" name
      (Scion_util.Stats.median a)
      (Scion_util.Stats.percentile a 90.0)
      (Scion_util.Stats.percentile a 99.0)
      (Array.length a)
  in
  stats "SCION" sc;
  stats "IP" ip;
  0

let days = Arg.(value & opt float 2.0 & info [ "days" ] ~doc:"Simulated days to run.")
let interval = Arg.(value & opt float 600.0 & info [ "interval" ] ~doc:"Aggregation interval (s).")
let pings = Arg.(value & opt int 3 & info [ "pings" ] ~doc:"Ping slots per interval.")

let cmd =
  Cmd.v
    (Cmd.info "multiping" ~doc:"Run the scion-go-multiping campaign over simulated SCIERA")
    Term.(const run $ days $ interval $ pings)

let () = exit (Cmd.eval' cmd)
