module Ia = Scion_addr.Ia
module Combinator = Scion_controlplane.Combinator
module M = Telemetry.Metrics

type fetch = dst:Ia.t -> Combinator.fullpath list

type cache_entry = { paths : Combinator.fullpath list; fetched_at : float }

type obs = { o_hits : M.counter; o_misses : M.counter }

type t = {
  ia : Ia.t;
  fetch : fetch;
  cache_ttl : float;
  revocation_ttl : float;
  retry : (Scion_util.Backoff.policy * Scion_util.Rng.t) option;
  cache : (Ia.t, cache_entry) Hashtbl.t;
  revoked : (string, float) Hashtbl.t;  (** "ia#ifid" -> active until *)
  poisoned : (string, float) Hashtbl.t;  (** path fingerprint -> active until *)
  mutable revocation_count : int;
  mutable poisoned_count : int;
  mutable evicted_count : int;
  quality : Pathmon.Cache.t;
  obs : obs option;
}

let make_obs registry ~ia =
  let base = [ ("ia", Ia.to_string ia) ] in
  {
    o_hits = M.counter registry ~labels:(("source", "cache") :: base) "daemon.lookups";
    o_misses = M.counter registry ~labels:(("source", "fetch") :: base) "daemon.lookups";
  }

(* Paths expiring within this many seconds of [now] are never served. *)
let expiry_margin = 60.0

let create ~ia ~fetch ?(cache_ttl = 300.0) ?(revocation_ttl = 10.0) ?retry ?quality ?metrics () =
  {
    ia;
    fetch;
    cache_ttl;
    revocation_ttl;
    retry;
    cache = Hashtbl.create 32;
    revoked = Hashtbl.create 8;
    poisoned = Hashtbl.create 8;
    revocation_count = 0;
    poisoned_count = 0;
    evicted_count = 0;
    quality = (match quality with Some c -> c | None -> Pathmon.Cache.create ());
    obs = Option.map (fun registry -> make_obs registry ~ia) metrics;
  }

let quality t = t.quality

type source = From_cache | Fetched

(* --- Revocations (SCMP external-interface-down) --- *)

let revoked_key ia ifid = Ia.to_string ia ^ "#" ^ string_of_int ifid

let interface_revoked t ~now ~ia ~ifid =
  match Hashtbl.find_opt t.revoked (revoked_key ia ifid) with
  | Some until -> until > now
  | None -> false

let crosses_revoked t ~now (p : Combinator.fullpath) =
  Hashtbl.length t.revoked > 0
  && List.exists
       (fun (h : Scion_addr.Hop_pred.hop) ->
         (h.ingress <> 0 && interface_revoked t ~now ~ia:h.ia ~ifid:h.ingress)
         || (h.egress <> 0 && interface_revoked t ~now ~ia:h.ia ~ifid:h.egress))
       p.Combinator.interfaces

(* Retry transient fetch failures (an empty answer from the control
   service) through the shared capped-exponential backoff; waits are
   simulated time, never slept. *)
let fetch_paths t ~dst =
  match t.retry with
  | None -> t.fetch ~dst
  | Some (policy, rng) -> (
      match
        Scion_util.Backoff.retry policy ~rng (fun ~attempt:_ ->
            match t.fetch ~dst with [] -> Error `Empty | paths -> Ok paths)
      with
      | Ok (paths, _) -> paths
      | Error _ -> [])

let path_poisoned t ~now (p : Combinator.fullpath) =
  Hashtbl.length t.poisoned > 0
  &&
  match Hashtbl.find_opt t.poisoned p.Combinator.fingerprint with
  | Some until -> until > now
  | None -> false

let usable t ~now paths =
  List.filter
    (fun p ->
      p.Combinator.expiry > now +. expiry_margin
      && (not (crosses_revoked t ~now p))
      && not (path_poisoned t ~now p))
    paths

let lookup t ~now ~dst =
  let refresh () =
    (match t.obs with None -> () | Some o -> M.inc o.o_misses);
    let paths = fetch_paths t ~dst in
    Hashtbl.replace t.cache dst { paths; fetched_at = now };
    (usable t ~now paths, Fetched)
  in
  match Hashtbl.find_opt t.cache dst with
  | Some entry when now -. entry.fetched_at <= t.cache_ttl -> (
      match usable t ~now entry.paths with
      | [] -> refresh ()
      | live ->
          (match t.obs with None -> () | Some o -> M.inc o.o_hits);
          (live, From_cache))
  | Some _ | None -> refresh ()

(* Learn that (ia, ifid) is dead: remember the revocation, evict every
   cached path crossing the interface, and eagerly re-fetch destinations
   whose cached set was wiped out so the next lookup has fresh material. *)
let revoke t ~now ~ia:rev_ia ~ifid =
  t.revocation_count <- t.revocation_count + 1;
  Hashtbl.replace t.revoked (revoked_key rev_ia ifid) (now +. t.revocation_ttl);
  let crosses (p : Combinator.fullpath) =
    List.exists
      (fun (h : Scion_addr.Hop_pred.hop) ->
        Ia.equal h.ia rev_ia && ((h.ingress <> 0 && h.ingress = ifid) || (h.egress <> 0 && h.egress = ifid)))
      p.Combinator.interfaces
  in
  let evictions =
    Scion_util.Table.fold_sorted
      (fun dst entry acc ->
        let keep, evicted = List.partition (fun p -> not (crosses p)) entry.paths in
        if evicted = [] then acc else (dst, keep, List.length evicted) :: acc)
      t.cache []
  in
  let evicted_total =
    List.fold_left
      (fun acc (dst, keep, n) ->
        (match keep with
        | [] ->
            let paths = fetch_paths t ~dst in
            Hashtbl.replace t.cache dst { paths; fetched_at = now }
        | _ :: _ -> Hashtbl.replace t.cache dst { paths = keep; fetched_at = now });
        acc + n)
      0 evictions
  in
  t.evicted_count <- t.evicted_count + evicted_total;
  evicted_total

(* MAC-verification feedback: a path whose traffic dies with
   Invalid_hop_field_mac was served from poisoned control-plane state
   (e.g. a rogue down-segment). Revoke it by fingerprint — the interface
   set may be entirely fictional, so interface revocation cannot help. *)
let report_poisoned t ~now (p : Combinator.fullpath) =
  t.poisoned_count <- t.poisoned_count + 1;
  Hashtbl.replace t.poisoned p.Combinator.fingerprint (now +. t.revocation_ttl);
  match Hashtbl.find_opt t.cache p.Combinator.dst with
  | None -> 0
  | Some entry ->
      let keep, evicted =
        List.partition
          (fun (q : Combinator.fullpath) ->
            not (String.equal q.Combinator.fingerprint p.Combinator.fingerprint))
          entry.paths
      in
      (match keep with
      | [] ->
          let paths = fetch_paths t ~dst:p.Combinator.dst in
          Hashtbl.replace t.cache p.Combinator.dst { paths; fetched_at = now }
      | _ :: _ -> Hashtbl.replace t.cache p.Combinator.dst { paths = keep; fetched_at = now });
      let n = List.length evicted in
      t.evicted_count <- t.evicted_count + n;
      n

let handle_scmp t ~now ?path msg =
  match msg with
  | Scion_dataplane.Scmp.External_interface_down { ia = rev_ia; ifid } ->
      Some (revoke t ~now ~ia:rev_ia ~ifid)
  | Scion_dataplane.Scmp.Invalid_hop_field_mac -> (
      match path with Some p -> Some (report_poisoned t ~now p) | None -> None)
  | Scion_dataplane.Scmp.Echo_request _ | Scion_dataplane.Scmp.Echo_reply _
  | Scion_dataplane.Scmp.Destination_unreachable | Scion_dataplane.Scmp.Expired_hop_field ->
      None

let revocations t = t.revocation_count
let poisoned_revocations t = t.poisoned_count
let evicted_paths t = t.evicted_count
