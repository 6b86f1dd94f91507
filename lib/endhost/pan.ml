module Combinator = Scion_controlplane.Combinator
module Hop_pred = Scion_addr.Hop_pred
module Ia = Scion_addr.Ia

type preference = Latency | Hops | Mtu | Expiry

let preference_of_string = function
  | "latency" -> Ok Latency
  | "hops" | "length" -> Ok Hops
  | "mtu" -> Ok Mtu
  | "expiry" -> Ok Expiry
  | s -> Error (Printf.sprintf "unknown preference %S" s)

type policy = {
  sequence : Hop_pred.sequence option;
  deny_transit : Ia.Set.t;
  preferences : preference list;
}

let default_policy = { sequence = None; deny_transit = Ia.Set.empty; preferences = [ Hops ] }

let policy_of_options ?sequence ?preference () =
  let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e in
  let* seq =
    match sequence with
    | None | Some "" -> Ok None
    | Some s -> ( match Hop_pred.parse_sequence s with Ok q -> Ok (Some q) | Error e -> Error e)
  in
  let* prefs =
    match preference with
    | None | Some "" -> Ok [ Hops ]
    | Some s ->
        List.fold_left
          (fun acc name ->
            let* acc = acc in
            let* p = preference_of_string (String.trim name) in
            Ok (p :: acc))
          (Ok [])
          (String.split_on_char ',' s)
        |> Result.map List.rev
  in
  Ok { sequence = seq; deny_transit = Ia.Set.empty; preferences = prefs }

let filter_paths policy paths =
  List.filter
    (fun p ->
      let hops = p.Combinator.interfaces in
      (match policy.sequence with
      | None -> true
      | Some seq -> Hop_pred.sequence_matches seq hops)
      && Hop_pred.deny_transit ~through:policy.deny_transit ~endpoints_ok:true hops)
    paths

let sort_paths policy ~latency_of paths =
  let criterion pref a b =
    match pref with
    | Latency -> Stdlib.compare (latency_of a) (latency_of b)
    | Hops -> Stdlib.compare (Combinator.num_hops a) (Combinator.num_hops b)
    | Mtu -> Stdlib.compare b.Combinator.mtu a.Combinator.mtu (* larger first *)
    | Expiry -> Stdlib.compare b.Combinator.expiry a.Combinator.expiry (* later first *)
  in
  let rec compare_by prefs a b =
    match prefs with
    | [] -> Stdlib.compare a.Combinator.fingerprint b.Combinator.fingerprint
    | p :: rest ->
        let c = criterion p a b in
        if c <> 0 then c else compare_by rest a b
  in
  List.sort (compare_by policy.preferences) paths

(* Flow placement for the traffic engine: among the policy's admissible
   paths, take the one with the most bottleneck headroom, falling back to
   the policy order on ties (strict > keeps the first, i.e. the
   policy-preferred, candidate — deterministic for equal headroom). *)
let pick_flow_path ?(policy = default_policy) ~latency_of ~headroom paths =
  match sort_paths policy ~latency_of (filter_paths policy paths) with
  | [] -> None
  | first :: rest ->
      let best, _ =
        List.fold_left
          (fun ((_, best_h) as kept) p ->
            let h = headroom p in
            if h > best_h then (p, h) else kept)
          (first, headroom first) rest
      in
      Some best

type mode = Daemon_dependent | Bootstrapper_dependent | Standalone

let mode_to_string = function
  | Daemon_dependent -> "daemon-dependent"
  | Bootstrapper_dependent -> "bootstrapper-dependent"
  | Standalone -> "standalone"

let choose_mode ~daemon_available ~bootstrapper_available =
  if daemon_available then Daemon_dependent
  else if bootstrapper_available then Bootstrapper_dependent
  else Standalone

module Conn = struct
  module M = Telemetry.Metrics

  type send_outcome = Sent of { rtt_ms : float } | Send_failed

  type transport = Combinator.fullpath -> payload:string -> send_outcome

  type adaptive = {
    selector : Pathmon.Selector.t;
    quality : string -> Pathmon.Estimator.t option;
  }

  type obs = {
    o_sent : M.counter;
    o_failed : M.counter;
    o_failovers : M.counter;
    o_reprobes : M.counter option;
        (** Registered only on re-probing connections, so legacy
            connections keep their exact snapshot shape. *)
    o_soft : M.counter option;
        (** Same discipline for adaptive connections. *)
  }

  type t = {
    transport : transport;
    mutable ranked : Combinator.fullpath list;  (** Current path first. *)
    mutable dead : (float * Combinator.fullpath) list;
        (** Failed-over paths awaiting re-probe: (due time s, path). *)
    rank : (string, int) Hashtbl.t;  (** fingerprint -> preference rank *)
    statics : (string, float) Hashtbl.t;  (** fingerprint -> dial-time latency_of *)
    fails : (string, int) Hashtbl.t;  (** fingerprint -> consecutive failures *)
    reprobe : (Scion_util.Backoff.policy * Scion_util.Rng.t) option;
    adaptive : adaptive option;
    mutable failover_count : int;
    mutable reprobe_count : int;
    mutable soft_switch_count : int;
    obs : obs option;
  }

  let make_obs registry ~peer ~reprobing ~adapting =
    let base = [ ("peer", peer) ] in
    {
      o_sent = M.counter registry ~labels:(("outcome", "sent") :: base) "pan.send";
      o_failed = M.counter registry ~labels:(("outcome", "failed") :: base) "pan.send";
      o_failovers = M.counter registry ~labels:base "pan.failovers";
      o_reprobes =
        (if reprobing then Some (M.counter registry ~labels:base "pan.reprobes") else None);
      o_soft =
        (if adapting then Some (M.counter registry ~labels:base "pan.soft_switches") else None);
    }

  let dial ?metrics ?(peer = "") ?reprobe ?adaptive ~policy ~latency_of ~transport ~paths () =
    match sort_paths policy ~latency_of (filter_paths policy paths) with
    | [] -> Error "no path satisfies the policy"
    | ranked ->
        let rank = Hashtbl.create 16 in
        let statics = Hashtbl.create 16 in
        List.iteri
          (fun i p ->
            Hashtbl.replace rank p.Combinator.fingerprint i;
            Hashtbl.replace statics p.Combinator.fingerprint (latency_of p))
          ranked;
        Ok
          {
            transport;
            ranked;
            dead = [];
            rank;
            statics;
            fails = Hashtbl.create 16;
            reprobe;
            adaptive;
            failover_count = 0;
            reprobe_count = 0;
            soft_switch_count = 0;
            obs =
              Option.map
                (fun registry ->
                  make_obs registry ~peer ~reprobing:(reprobe <> None)
                    ~adapting:(adaptive <> None))
                metrics;
          }

  let current_path t =
    match t.ranked with p :: _ -> p | [] -> invalid_arg "Conn: no paths left"

  let candidates t = List.length t.ranked

  let rank_of t (p : Combinator.fullpath) =
    Scion_util.Table.find_or ~default:max_int t.rank p.Combinator.fingerprint

  (* Move every due dead path back into the candidate list at its original
     preference rank, so a repaired preferred path is tried *before* the
     lower-ranked path we failed over to — this is what makes connections
     return to the preferred path after repair rather than sticking to the
     detour forever. *)
  let resurrect t ~now =
    let due, pending = List.partition (fun (at, _) -> at <= now) t.dead in
    match due with
    | [] -> ()
    | _ :: _ ->
        t.dead <- pending;
        let n = List.length due in
        t.reprobe_count <- t.reprobe_count + n;
        (match t.obs with
        | Some { o_reprobes = Some c; _ } -> M.add c n
        | Some { o_reprobes = None; _ } | None -> ());
        let merged = List.map snd due @ t.ranked in
        t.ranked <- List.stable_sort (fun a b -> Int.compare (rank_of t a) (rank_of t b)) merged

  (* Soft failover: ask the selector whether live quality says the head of
     the ranked list should no longer carry traffic, and rotate the chosen
     path to the front if so. Purely a reordering — no path is dropped or
     parked, so hard failover and re-probing compose underneath. *)
  let adapt t =
    match (t.adaptive, t.ranked) with
    | None, _ | _, [] -> ()
    | Some a, (active :: _ as ranked) ->
        let candidates =
          List.map
            (fun (p : Combinator.fullpath) ->
              {
                Pathmon.Selector.fingerprint = p.Combinator.fingerprint;
                static_ms =
                  Scion_util.Table.find_or ~default:infinity t.statics p.Combinator.fingerprint;
                estimator = a.quality p.Combinator.fingerprint;
              })
            ranked
        in
        let chosen =
          Pathmon.Selector.choose a.selector ~candidates ~active:active.Combinator.fingerprint
        in
        if not (String.equal chosen active.Combinator.fingerprint) then begin
          let front, back =
            List.partition (fun p -> String.equal p.Combinator.fingerprint chosen) ranked
          in
          t.ranked <- front @ back;
          t.soft_switch_count <- t.soft_switch_count + 1;
          match t.obs with
          | Some { o_soft = Some c; _ } -> M.inc c
          | Some { o_soft = None; _ } | None -> ()
        end

  let send ?now t ~payload =
    (match (t.reprobe, now) with
    | Some _, Some now -> resurrect t ~now
    | (Some _ | None), _ -> ());
    adapt t;
    let rec attempt () =
      match t.ranked with
      | [] -> Send_failed
      | path :: rest -> (
          match t.transport path ~payload with
          | Sent r ->
              (match t.reprobe with
              | Some _ -> Hashtbl.replace t.fails path.Combinator.fingerprint 0
              | None -> ());
              Sent r
          | Send_failed ->
              (* Drop the dead path and retry over the next candidate; with
                 a re-probe policy the path is parked until its
                 capped-exponential probe timer, not dropped forever. *)
              t.ranked <- rest;
              t.failover_count <- t.failover_count + 1;
              (match t.obs with None -> () | Some o -> M.inc o.o_failovers);
              (match (t.reprobe, now) with
              | Some (policy, rng), Some now ->
                  let failures =
                    Scion_util.Table.find_or ~default:0 t.fails path.Combinator.fingerprint + 1
                  in
                  Hashtbl.replace t.fails path.Combinator.fingerprint failures;
                  let delay_ms = Scion_util.Backoff.delay_ms policy ~rng ~attempt:failures in
                  t.dead <- (now +. (delay_ms /. 1000.0), path) :: t.dead
              | (Some _ | None), _ -> ());
              attempt ())
    in
    let outcome = attempt () in
    (match t.obs with
    | None -> ()
    | Some o -> (
        match outcome with Sent _ -> M.inc o.o_sent | Send_failed -> M.inc o.o_failed));
    outcome

  let failovers t = t.failover_count
  let reprobes t = t.reprobe_count
  let soft_switches t = t.soft_switch_count
end
