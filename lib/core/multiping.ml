module Ia = Scion_addr.Ia
module Combinator = Scion_controlplane.Combinator
module Rng = Scion_util.Rng

type sample = {
  day : float;
  src : Ia.t;
  dst : Ia.t;
  scion_rtt : float option;
  scion_sent : int;
  scion_ok : int;
  ip_rtt : float option;
  ip_sent : int;
  ip_ok : int;
  path_fingerprint : string option;
}

type dataset = {
  samples : sample list;
  scion_pings : int;
  ip_pings : int;
  intervals : int;
}

type config = {
  interval_s : float;
  pings_per_interval : int;
  stall_fraction : float;
  stall_sources : Ia.t list;
}

let default_config =
  {
    interval_s = 600.0;
    pings_per_interval = 3;
    stall_fraction = 0.6;
    stall_sources =
      List.map Ia.of_string [ "71-2:0:5c"; "71-225"; "71-2:0:4a"; "71-2:0:3b" ];
  }

(* Path selection of the tool: shortest, fastest, most disjoint. *)
let probe_paths net ~src ~dst =
  match Network.paths net ~src ~dst with
  | [] -> []
  | (first :: _) as ps ->
      (* Paths come sorted by (hops, fingerprint): head is the shortest with
         the lowest identifier. *)
      let shortest = first in
      let fastest =
        List.fold_left
          (fun best p ->
            if Network.scion_rtt_base net p < Network.scion_rtt_base net best then p else best)
          shortest ps
      in
      let module S = Set.Make (struct
        type t = Ia.t * int

        let compare (i1, f1) (i2, f2) =
          let c = Ia.compare i1 i2 in
          if c <> 0 then c else Stdlib.compare f1 f2
      end) in
      let reference =
        S.union
          (S.of_list (Combinator.interface_ids shortest))
          (S.of_list (Combinator.interface_ids fastest))
      in
      let shared p =
        List.length (List.filter (fun i -> S.mem i reference) (Combinator.interface_ids p))
      in
      let disjoint =
        List.fold_left (fun best p -> if shared p < shared best then p else best) shortest ps
      in
      let dedup =
        List.fold_left
          (fun acc p ->
            if List.exists (fun q -> q.Combinator.fingerprint = p.Combinator.fingerprint) acc then acc
            else acc @ [ p ])
          [] [ shortest; fastest; disjoint ]
      in
      dedup

let run net ?(config = default_config) ?(days = Incidents.window_days) ?sources ?destinations () =
  let sources = match sources with Some s -> s | None -> Topology.measurement_ases in
  let destinations =
    match destinations with
    | Some d -> d
    | None -> List.map (fun (a : Topology.as_info) -> a.Topology.ia) Topology.ases
  in
  let rng = Rng.split (Network.rng net) in
  let intervals = int_of_float (days *. 86400.0 /. config.interval_s) in
  let samples = ref [] in
  let scion_total = ref 0 and ip_total = ref 0 in
  (* Path probes are refreshed whenever the control plane re-converged. *)
  let probe_cache : (Ia.t * Ia.t, Combinator.fullpath list) Hashtbl.t = Hashtbl.create 512 in
  let probe_epoch = ref (-1) in
  for i = 0 to intervals - 1 do
    let t = float_of_int i *. config.interval_s in
    let day = t /. 86400.0 in
    Network.set_day net day;
    if Network.rebeacon_count net <> !probe_epoch then begin
      Hashtbl.reset probe_cache;
      probe_epoch := Network.rebeacon_count net
    end;
    let hour_frac = Float.rem t 3600.0 /. 3600.0 in
    List.iter
      (fun src ->
        let stalled =
          hour_frac > 1.0 -. config.stall_fraction
          && List.exists (Ia.equal src) config.stall_sources
        in
        List.iter
          (fun dst ->
            if not (Ia.equal src dst) then begin
              let key = (src, dst) in
              let paths =
                match Hashtbl.find_opt probe_cache key with
                | Some p -> p
                | None ->
                    let p = probe_paths net ~src ~dst in
                    Hashtbl.replace probe_cache key p;
                    p
              in
              (* SCION: one SCMP ping per selected path per slot; keep the
                 interval minimum and the path that produced it. *)
              let scion_sent = ref 0 and scion_ok = ref 0 in
              let best = ref None in
              for _slot = 1 to config.pings_per_interval do
                List.iter
                  (fun p ->
                    incr scion_sent;
                    match Network.scion_rtt_sample net p with
                    | `Lost -> ()
                    | `Rtt ms ->
                        incr scion_ok;
                        let better =
                          match !best with None -> true | Some (b, _) -> ms < b
                        in
                        if better then best := Some (ms, p.Combinator.fingerprint))
                  paths
              done;
              (* IP: one ICMP ping per slot unless the tool is stalled. *)
              let ip_sent = ref 0 and ip_ok = ref 0 in
              let ip_best = ref None in
              if not stalled then
                for _slot = 1 to config.pings_per_interval do
                  incr ip_sent;
                  match Network.ip_rtt_sample net ~src ~dst with
                  | `Lost -> ()
                  | `Rtt ms ->
                      incr ip_ok;
                      (match !ip_best with
                      | Some b when b <= ms -> ()
                      | Some _ | None -> ip_best := Some ms)
                done;
              (* A handful of kept intervals still lose an ICMP ping. *)
              if (not stalled) && !ip_ok > 0 && Rng.float rng 1.0 < 0.01 then begin
                ip_sent := !ip_sent + 1 (* one extra attempt that got lost *)
              end;
              scion_total := !scion_total + !scion_sent;
              ip_total := !ip_total + !ip_sent;
              samples :=
                {
                  day;
                  src;
                  dst;
                  scion_rtt = Option.map fst !best;
                  scion_sent = !scion_sent;
                  scion_ok = !scion_ok;
                  ip_rtt = !ip_best;
                  ip_sent = !ip_sent;
                  ip_ok = !ip_ok;
                  path_fingerprint = Option.map snd !best;
                }
                :: !samples
            end)
          destinations)
      sources
  done;
  {
    samples = List.rev !samples;
    scion_pings = !scion_total;
    ip_pings = !ip_total;
    intervals;
  }

let excluded_ip_majority ds =
  let keep s = s.ip_sent > 0 && 2 * s.ip_ok >= s.ip_sent in
  let kept = List.filter keep ds.samples in
  {
    samples = kept;
    scion_pings = List.fold_left (fun a s -> a + s.scion_sent) 0 kept;
    ip_pings = List.fold_left (fun a s -> a + s.ip_sent) 0 kept;
    intervals = ds.intervals;
  }
