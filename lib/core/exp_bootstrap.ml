(* Section 5.1, Figure 4: end-host bootstrapping performance — hint
   retrieval, configuration retrieval and total latency per OS, 30 runs per
   hinting mechanism; plus Table 2 (Appendix A), the availability matrix of
   hinting mechanisms per network environment. *)

module Boot = Scion_endhost.Bootstrap
module Hints = Scion_endhost.Hints
module Stats = Scion_util.Stats
module Rng = Scion_util.Rng
module Schnorr = Scion_crypto.Schnorr

type os_summary = {
  os : Boot.os;
  hint : Stats.boxplot;
  config : Stats.boxplot;
  total : Stats.boxplot;
}

type result = {
  per_os : os_summary list;
  runs_per_mechanism : int;
  all_medians_under_ms : float;  (** Max total median across OSes. *)
}

(* A full-featured campus network: every mechanism exercisable. *)
let rich_env =
  {
    Hints.static_ips_only = false;
    dhcp = true;
    dhcpv6 = true;
    ipv6_ras = true;
    dns_search_domain = true;
  }

let make_server () =
  let signer, pub = Schnorr.derive ~seed:"bootstrap-demo-as" in
  let topology =
    Boot.sign_topology ~ia:(Scion_addr.Ia.of_string "71-2:0:42")
      ~border_routers:[ Scion_addr.Ipv4.endpoint_of_string "10.7.0.2:30042" ]
      ~control_service:(Scion_addr.Ipv4.endpoint_of_string "10.7.0.3:30252")
      ~signer
  in
  let root_priv, root_pub = Schnorr.derive ~seed:"bootstrap-demo-root" in
  let trc =
    Scion_cppki.Trc.sign_base ~isd:71 ~validity:(0.0, 4e9)
      ~core_ases:[ Scion_addr.Ia.of_string "71-20965" ]
      ~ca_ases:[ Scion_addr.Ia.of_string "71-20965" ]
      ~quorum:1
      ~roots:[ ("root-71", root_priv, root_pub) ]
  in
  ( { Boot.endpoint = Scion_addr.Ipv4.endpoint_of_string "192.168.1.1:8041"; topology; trcs = [ trc ] },
    pub )

let seed = 0xB007L
let runs = 30

let run ~telemetry =
  let server, as_key = make_server () in
  (* No Network underneath this experiment: the metrics evidence is the
     timing distribution itself, one summary per OS and stage. *)
  let record_stage =
    let module M = Telemetry.Metrics in
    let reg = Obs.registry telemetry in
    fun ~os ~stage ms ->
      M.record (M.summary reg ~labels:[ ("os", os); ("stage", stage) ] "exp.fig4.latency_ms") ms
  in
  let per_os =
    List.map
      (fun os ->
        let rng = Rng.of_label seed (Boot.os_name os) in
        let hints = ref [] and configs = ref [] and totals = ref [] in
        List.iter
          (fun mech ->
            if Hints.available mech rich_env <> Hints.Not_applicable then
              for _ = 1 to runs do
                match
                  Boot.run ~rng ~os ~env:rich_env ~server:(Some server) ~as_cert_key:as_key
                    ~force_mechanism:mech ()
                with
                | Ok (_, _, timing) ->
                    hints := timing.Boot.hint_ms :: !hints;
                    configs := timing.Boot.config_ms :: !configs;
                    totals := timing.Boot.total_ms :: !totals;
                    let os = Boot.os_name os in
                    record_stage ~os ~stage:"hint" timing.Boot.hint_ms;
                    record_stage ~os ~stage:"config" timing.Boot.config_ms;
                    record_stage ~os ~stage:"total" timing.Boot.total_ms
                | Error e -> failwith (Boot.error_to_string e)
              done)
          Hints.all;
        {
          os;
          hint = Stats.boxplot (Array.of_list !hints);
          config = Stats.boxplot (Array.of_list !configs);
          total = Stats.boxplot (Array.of_list !totals);
        })
      Boot.all_oses
  in
  let worst_median =
    List.fold_left (fun acc s -> Float.max acc s.total.Stats.med) 0.0 per_os
  in
  { per_os; runs_per_mechanism = runs; all_medians_under_ms = worst_median }

let box_row label (b : Stats.boxplot) =
  [
    label;
    Scion_util.Table.fmt_ms b.Stats.low_whisker;
    Scion_util.Table.fmt_ms b.Stats.q1;
    Scion_util.Table.fmt_ms b.Stats.med;
    Scion_util.Table.fmt_ms b.Stats.q3;
    Scion_util.Table.fmt_ms b.Stats.high_whisker;
  ]

let print_fig4 b r =
  Printf.bprintf b "== Figure 4: bootstrapping latency per platform (%d runs/mechanism, ms) ==\n"
    r.runs_per_mechanism;
  Buffer.add_string b (Scion_util.Table.render
    ~header:[ "stage/os"; "p5"; "q1"; "median"; "q3"; "p95" ]
    ~rows:
      (List.concat_map
         (fun s ->
           let n = Boot.os_name s.os in
           [
             box_row (n ^ " hint") s.hint;
             box_row (n ^ " config") s.config;
             box_row (n ^ " total") s.total;
           ])
         r.per_os));
  Printf.bprintf b "worst total median: %.1f ms — %s 150 ms, imperceptible to users (paper: median < 150 ms)\n\n"
    r.all_medians_under_ms
    (if r.all_medians_under_ms < 150.0 then "under" else "OVER")

let print_table2 b =
  let envs =
    [
      ("static", { Hints.static_ips_only = true; dhcp = false; dhcpv6 = false; ipv6_ras = false; dns_search_domain = false });
      ("dhcp", { Hints.static_ips_only = false; dhcp = true; dhcpv6 = false; ipv6_ras = false; dns_search_domain = false });
      ("dhcpv6", { Hints.static_ips_only = false; dhcp = false; dhcpv6 = true; ipv6_ras = false; dns_search_domain = false });
      ("ipv6 RA", { Hints.static_ips_only = false; dhcp = false; dhcpv6 = false; ipv6_ras = true; dns_search_domain = false });
      ("dns", { Hints.static_ips_only = false; dhcp = false; dhcpv6 = false; ipv6_ras = false; dns_search_domain = true });
    ]
  in
  let cell m env =
    match Hints.available m env with
    | Hints.Available -> "Y"
    | Hints.Combined -> "M"
    | Hints.Not_applicable -> "N"
  in
  Buffer.add_string b (Scion_util.Table.render
    ~header:("mechanism" :: List.map fst envs)
    ~rows:(List.map (fun m -> Hints.name m :: List.map (fun (_, e) -> cell m e) envs) Hints.all));
  Printf.bprintf b "\n"
