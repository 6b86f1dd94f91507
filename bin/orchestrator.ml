(* orchestrator — the Section 4.4 SCION Orchestrator's status dashboard for
   the simulated deployment: per-AS service status, certificate lifetimes
   with automated renewal, link/interface health and router counters — the
   observability story ("aggregated service status dashboard with easy
   access to relevant logs").

   dune exec bin/orchestrator.exe -- --day 8 --renew *)

open Cmdliner

let run day renew =
  let net = Sciera.Network.create () in
  Sciera.Network.set_day net day;
  let mesh = Sciera.Network.mesh net in
  let now = Sciera.Network.now_unix net in
  Printf.printf "SCIERA orchestrator — window day %.1f\n\n" day;
  (* Incident board. *)
  let active = Sciera.Incidents.active_at day in
  Printf.printf "active incidents (%d):\n" (List.length active);
  List.iter (fun i -> Printf.printf "  - %s\n" i.Sciera.Incidents.title) active;
  if renew then begin
    let n = Scion_controlplane.Mesh.renew_certificates mesh ~now in
    Printf.printf "\nautomated certificate renewal sweep: %d certificates renewed\n" n
  end;
  print_newline ();
  (* Per-AS status. *)
  print_string (Scion_util.Table.render
    ~header:[ "AS"; "name"; "stack"; "cert expires (h)"; "ifaces"; "down"; "beacons ok" ]
    ~rows:
      (List.map
         (fun (info : Sciera.Topology.as_info) ->
           let ia = info.Sciera.Topology.ia in
           let cert = Scion_controlplane.Mesh.cert_of mesh ia in
           let router = Scion_controlplane.Mesh.router mesh ia in
           let ifaces = Scion_dataplane.Router.interfaces router in
           let down =
             List.length
               (List.filter
                  (fun i ->
                    not (Scion_dataplane.Router.interface_up router i.Scion_dataplane.Router.ifid))
                  ifaces)
           in
           let has_segments =
             if info.Sciera.Topology.core then
               Scion_controlplane.Mesh.core_segments_at mesh ia <> []
             else Scion_controlplane.Mesh.up_segments mesh ia <> []
           in
           [
             Scion_addr.Ia.to_string ia;
             info.Sciera.Topology.name;
             (match info.Sciera.Topology.profile with
             | Scion_cppki.Cert.Open_source -> "open-source"
             | Scion_cppki.Cert.Proprietary -> "anapaya");
             Printf.sprintf "%.0f" ((cert.Scion_cppki.Cert.not_after -. now) /. 3600.0);
             string_of_int (List.length ifaces);
             string_of_int down;
             (if has_segments then "yes" else "NO");
           ])
         Sciera.Topology.ases));
  Printf.printf "\ncontrol plane: %d convergences, %d PCB verification failures\n"
    (Sciera.Network.rebeacon_count net)
    (Scion_controlplane.Mesh.verification_failures mesh);
  0

let day = Arg.(value & opt float 3.2 & info [ "day" ] ~doc:"Measurement-window day (0-20).")
let renew = Arg.(value & flag & info [ "renew" ] ~doc:"Run the certificate renewal sweep.")

let cmd =
  Cmd.v
    (Cmd.info "orchestrator" ~doc:"SCION Orchestrator status dashboard for simulated SCIERA")
    Term.(const run $ day $ renew)

let () = exit (Cmd.eval' cmd)
