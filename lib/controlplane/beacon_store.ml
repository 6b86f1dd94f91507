module IaMap = Scion_addr.Ia.Map
module M = Telemetry.Metrics

type entry = { pcb : Pcb.t; fingerprint : string }

type obs = {
  o_added : M.counter;
  o_replaced : M.counter;
  o_rej_full : M.counter;
  o_rej_dup : M.counter;
}

type t = { mutable buckets : entry list IaMap.t; per_origin : int; obs : obs option }

let make_obs registry ~name =
  let base = [ ("store", name) ] in
  let counter ?(extra = []) metric = M.counter registry ~labels:(base @ extra) metric in
  (* Registered for snapshot shape only: nothing expires stored beacons in
     place, so the series stays 0. *)
  ignore (counter "beacon_store.expired");
  {
    o_added = counter ~extra:[ ("outcome", "added") ] "beacon_store.inserted";
    o_replaced = counter ~extra:[ ("outcome", "replaced") ] "beacon_store.inserted";
    o_rej_full = counter ~extra:[ ("reason", "full") ] "beacon_store.rejected";
    o_rej_dup = counter ~extra:[ ("reason", "duplicate") ] "beacon_store.rejected";
  }

let create ?(per_origin = 8) ?metrics ?(name = "") () =
  {
    buckets = IaMap.empty;
    per_origin;
    obs = Option.map (fun registry -> make_obs registry ~name) metrics;
  }

type outcome = Added | Replaced | Rejected_full | Rejected_duplicate

let observe_outcome t outcome =
  (match t.obs with
  | None -> ()
  | Some o -> (
      match outcome with
      | Added -> M.inc o.o_added
      | Replaced -> M.inc o.o_replaced
      | Rejected_full -> M.inc o.o_rej_full
      | Rejected_duplicate -> M.inc o.o_rej_dup));
  outcome

(* Shorter beacons first; ties broken by fingerprint for determinism. *)
let better a b =
  let la = Pcb.num_entries a.pcb and lb = Pcb.num_entries b.pcb in
  if la <> lb then la < lb else a.fingerprint < b.fingerprint

let sort_bucket = List.sort (fun a b -> if better a b then -1 else 1)

let insert_unobserved t pcb =
  let fingerprint = Pcb.interface_fingerprint pcb in
  let origin = Pcb.origin pcb in
  let bucket = match IaMap.find_opt origin t.buckets with Some b -> b | None -> [] in
  match List.find_opt (fun e -> e.fingerprint = fingerprint) bucket with
  | Some existing ->
      if pcb.Pcb.timestamp > existing.pcb.Pcb.timestamp then begin
        let bucket =
          { pcb; fingerprint } :: List.filter (fun e -> e.fingerprint <> fingerprint) bucket
        in
        t.buckets <- IaMap.add origin (sort_bucket bucket) t.buckets;
        Replaced
      end
      else Rejected_duplicate
  | None ->
      let candidate = { pcb; fingerprint } in
      if List.length bucket < t.per_origin then begin
        t.buckets <- IaMap.add origin (sort_bucket (candidate :: bucket)) t.buckets;
        Added
      end
      else begin
        (* Bucket full: evict the worst if the candidate beats it. *)
        match List.rev (sort_bucket bucket) with
        | worst :: _ when better candidate worst ->
            let bucket =
              candidate :: List.filter (fun e -> e.fingerprint <> worst.fingerprint) bucket
            in
            t.buckets <- IaMap.add origin (sort_bucket bucket) t.buckets;
            Replaced
        | _ -> Rejected_full
      end

let insert t pcb = observe_outcome t (insert_unobserved t pcb)

let best t ~k =
  IaMap.fold (fun _ bucket acc ->
      let rec take n = function
        | [] -> []
        | e :: rest -> if n = 0 then [] else e.pcb :: take (n - 1) rest
      in
      take k (sort_bucket bucket) @ acc)
    t.buckets []

let all t = IaMap.fold (fun _ bucket acc -> List.map (fun e -> e.pcb) bucket @ acc) t.buckets []

let clear t = t.buckets <- IaMap.empty
