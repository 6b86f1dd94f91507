module Ia = Scion_addr.Ia
module Cert = Scion_cppki.Cert
module Trc = Scion_cppki.Trc
module Ca = Scion_cppki.Ca
module Schnorr = Scion_crypto.Schnorr
module Fwkey = Scion_dataplane.Fwkey
module Router = Scion_dataplane.Router
module M = Telemetry.Metrics

type link_class = Core_link | Parent_child | Peering

type as_spec = {
  spec_ia : Ia.t;
  core : bool;
  ca : bool;
  profile : Cert.profile;
  note : string;
}

type link_spec = { l_a : Ia.t; l_b : Ia.t; cls : link_class }

(* Total lookup of the per-ISD CA; every AS spec is checked against its ISD
   at mesh-construction time, so a miss is a construction bug. *)
let ca_for cas isd =
  match Hashtbl.find_opt cas isd with
  | Some ca -> ca
  | None -> invalid_arg (Printf.sprintf "Mesh: no CA for ISD %d" isd)

type quarantine_policy = { q_threshold : int; q_backoff : Scion_util.Backoff.policy }

let default_quarantine =
  {
    q_threshold = 3;
    (* Zero jitter: quarantine pacing must not draw from the mesh stream,
       so attaching an adversary leaves workload draws untouched. *)
    q_backoff =
      Scion_util.Backoff.make ~base_ms:5_000.0 ~multiplier:2.0 ~cap_ms:120_000.0 ~jitter:0.0
        ~max_attempts:1_000 ();
  }

type config = {
  seed : int64;
  per_origin : int;
  propagate_k : int;
  rounds : int;
  verify_pcbs : bool;
  fanout_cap : int option;
  quarantine : quarantine_policy option;
}

let default_config =
  {
    seed = 0xC1EA_5EEDL;
    per_origin = 8;
    propagate_k = 4;
    rounds = 8;
    verify_pcbs = true;
    fanout_cap = None;
    quarantine = None;
  }

let cert_validity = 3.0 *. 24.0 *. 3600.0

type role = Parent | Child | Core_nbr | Peer

type neighbor = {
  n_ifid : int;
  n_ia : Ia.t;
  n_remote_ifid : int;
  n_cls : link_class;
  n_role : role;
  n_link : int;
}

(* Per-neighbor containment state: repeated verification failures from one
   interface earn exponentially longer quarantine windows. *)
type qstate = { mutable strikes : int; mutable offences : int; mutable q_until : float }

type node = {
  nd_ia : Ia.t;
  nd_core : bool;
  nd_profile : Cert.profile;
  nd_note : string;
  fwkey : Fwkey.t;
  signer : Schnorr.private_key;
  pubkey : Schnorr.public_key;
  mutable cert : Cert.t;
  mutable nbrs : neighbor list;
  mutable nbr_tbl : neighbor option array;
      (** Dense by local ifid (ids are allocated 1..degree), for O(1)
          egress lookup on the per-hop forwarding path. *)
  mutable q_tbl : qstate option array;  (** Dense by local ifid, like [nbr_tbl]. *)
  store_intra : Beacon_store.t;
  store_core : Beacon_store.t;
  mutable ups : Pcb.t list;
  mutable cores_terminated : Pcb.t list;
}

type link_id = int

type link = { spec : link_spec; a_if : int; b_if : int; mutable l_up : bool }

(* Control-plane telemetry handles; created eagerly when a registry is
   supplied so idle-mesh snapshots already have their full shape. *)
type obs = {
  o_verif_failures : M.counter;
  o_beaconing_runs : M.counter;
  o_cert_renewals : M.counter;
  o_sigcache_hits : M.gauge;
  o_sigcache_misses : M.gauge;
  o_quarantine_events : M.counter option;
      (** Only when [config.quarantine] is set: existing figures pin their
          snapshot bytes, so the containment series must stay out of
          their registries. *)
  o_quarantine_drops : M.counter option;
}

let make_obs ~quarantine registry =
  {
    o_verif_failures = M.counter registry "mesh.verification_failures";
    o_beaconing_runs = M.counter registry "mesh.beaconing_runs";
    o_cert_renewals = M.counter registry "mesh.cert_renewals";
    o_sigcache_hits = M.gauge registry ~labels:[ ("result", "hit") ] "mesh.sigcache";
    o_sigcache_misses = M.gauge registry ~labels:[ ("result", "miss") ] "mesh.sigcache";
    o_quarantine_events =
      (if quarantine then Some (M.counter registry "mesh.quarantine_events") else None);
    o_quarantine_drops =
      (if quarantine then Some (M.counter registry "mesh.quarantine_drops") else None);
  }

type t = {
  cfg : config;
  rng : Scion_util.Rng.t;
  nodes : (Ia.t, node) Hashtbl.t;
  order : Ia.t list;  (** Sorted IA list for deterministic iteration. *)
  link_arr : link array;
  trcs : (int, Trc.t) Hashtbl.t;
  cas : (int, Ca.t) Hashtbl.t;
  down_registry : (Ia.t, Pcb.t list) Hashtbl.t;
  sent_log : (string, unit) Hashtbl.t;
  cache : Sigcache.t;
  routers : (Ia.t, Router.t) Hashtbl.t;
  roots : (int, string * Schnorr.private_key * Schnorr.public_key) Hashtbl.t;
      (** Per-ISD root key material — retained so a rotation drill can vote
          the successor TRC in with the previous root. *)
  seized : (Ia.t, Schnorr.private_key) Hashtbl.t;
      (** ASes whose identity an attacker holds (CA-compromise model):
          the attacker's signing key, matching the node's swapped cert. *)
  mutable rotations : int;
  mutable quarantine_events : int;
  mutable quarantine_drops : int;
  mutable verif_failures : int;
  memo : (Ia.t * Ia.t, Combinator.fullpath list) Hashtbl.t;
      (** {!paths} results; reset by the two registry writers,
          [run_beaconing] and [register_rogue_segments]. *)
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable fanout_sends : int;
  mutable fanout_capped : int;
  obs : obs option;
}

let config t = t.cfg
let ases t = t.order

let node t ia =
  match Hashtbl.find_opt t.nodes ia with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Mesh: unknown AS %s" (Ia.to_string ia))

let is_core t ia = (node t ia).nd_core
let trc t isd = match Hashtbl.find_opt t.trcs isd with Some x -> x | None -> raise Not_found
let cert_of t ia = (node t ia).cert

let neighbors t ia = List.map (fun n -> (n.n_ifid, n.n_ia, n.n_cls)) (node t ia).nbrs

let links t = Array.to_list (Array.mapi (fun i l -> (i, l.spec)) t.link_arr)

let link_interfaces t id =
  let l = t.link_arr.(id) in
  (l.a_if, l.b_if)

let find_links t a b =
  let matches l =
    (Ia.equal l.spec.l_a a && Ia.equal l.spec.l_b b)
    || (Ia.equal l.spec.l_a b && Ia.equal l.spec.l_b a)
  in
  Array.to_list t.link_arr
  |> List.mapi (fun i l -> (i, l))
  |> List.filter_map (fun (i, l) -> if matches l then Some i else None)

let router t ia =
  match Hashtbl.find_opt t.routers ia with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Mesh.router: unknown AS %s" (Ia.to_string ia))

let set_link_state t id ~up =
  let l = t.link_arr.(id) in
  l.l_up <- up;
  Router.set_interface_state (router t l.spec.l_a) l.a_if ~up;
  Router.set_interface_state (router t l.spec.l_b) l.b_if ~up

let verification_failures t = t.verif_failures

(* --- Construction --- *)

let create ?(config = default_config) ?metrics ~now ~ases ~links () =
  (match config.quarantine with
  | Some q when not (Float.equal q.q_backoff.Scion_util.Backoff.jitter 0.0) ->
      invalid_arg "Mesh.create: a quarantine backoff must use zero jitter"
  | Some _ | None -> ());
  let rng = Scion_util.Rng.create config.seed in
  let nodes = Hashtbl.create 64 in
  let seed_str = Int64.to_string config.seed in
  (* Per-ISD PKI. *)
  let isds =
    List.sort_uniq Stdlib.compare (List.map (fun s -> s.spec_ia.Ia.isd) ases)
  in
  let trcs = Hashtbl.create 4 in
  let cas = Hashtbl.create 4 in
  let roots = Hashtbl.create 4 in
  let ten_years = 10.0 *. 365.0 *. 24.0 *. 3600.0 in
  List.iter
    (fun isd ->
      let in_isd = List.filter (fun s -> s.spec_ia.Ia.isd = isd) ases in
      let cores = List.filter (fun s -> s.core) in_isd in
      let first_core =
        match cores with
        | c :: _ -> c
        | [] -> invalid_arg (Printf.sprintf "Mesh.create: ISD %d has no core AS" isd)
      in
      let ca_spec =
        match List.find_opt (fun s -> s.ca) in_isd with Some s -> s | None -> first_core
      in
      let root_name = Printf.sprintf "root-%d" isd in
      let root_priv, root_pub =
        Schnorr.derive ~seed:(Printf.sprintf "%s/root/%d" seed_str isd)
      in
      let trc =
        Trc.sign_base ~isd
          ~validity:(now -. 1.0, now +. ten_years)
          ~core_ases:(List.map (fun s -> s.spec_ia) cores)
          ~ca_ases:[ ca_spec.spec_ia ] ~quorum:1
          ~roots:[ (root_name, root_priv, root_pub) ]
      in
      Hashtbl.replace trcs isd trc;
      Hashtbl.replace roots isd (root_name, root_priv, root_pub);
      let ca_priv, ca_pub =
        Schnorr.derive ~seed:(Printf.sprintf "%s/ca/%d" seed_str isd)
      in
      let ca_cert =
        Cert.sign ~kind:Cert.Ca ~profile:ca_spec.profile ~serial:1 ~subject:ca_spec.spec_ia
          ~pubkey:ca_pub
          ~validity:(now -. 1.0, now +. (ten_years /. 2.0))
          ~issuer:ca_spec.spec_ia ~issuer_key_name:root_name ~issuer_priv:root_priv
      in
      Hashtbl.replace cas isd
        (Ca.create ~ia:ca_spec.spec_ia ~priv:ca_priv ~cert:ca_cert
           ~default_validity:cert_validity ()))
    isds;
  (* AS nodes with certificates. *)
  List.iter
    (fun spec ->
      if Hashtbl.mem nodes spec.spec_ia then
        invalid_arg (Printf.sprintf "Mesh.create: duplicate AS %s" (Ia.to_string spec.spec_ia));
      let signer, pubkey =
        Schnorr.derive ~seed:(Printf.sprintf "%s/as/%s" seed_str (Ia.to_string spec.spec_ia))
      in
      let ca = ca_for cas spec.spec_ia.Ia.isd in
      let cert = Ca.issue ca ~subject:spec.spec_ia ~pubkey ~profile:spec.profile ~now in
      Hashtbl.replace nodes spec.spec_ia
        {
          nd_ia = spec.spec_ia;
          nd_core = spec.core;
          nd_profile = spec.profile;
          nd_note = spec.note;
          fwkey = Fwkey.of_seed ~ia:spec.spec_ia ~seed:seed_str;
          signer;
          pubkey;
          cert;
          nbrs = [];
          nbr_tbl = [||];
          q_tbl = [||];
          store_intra =
            Beacon_store.create ~per_origin:config.per_origin ?metrics
              ~name:(Ia.to_string spec.spec_ia ^ "/intra") ();
          store_core =
            Beacon_store.create ~per_origin:config.per_origin ?metrics
              ~name:(Ia.to_string spec.spec_ia ^ "/core") ();
          ups = [];
          cores_terminated = [];
        })
    ases;
  (* Links with automatic interface-id assignment. *)
  let next_ifid = Hashtbl.create 64 in
  let alloc ia =
    let v = match Hashtbl.find_opt next_ifid ia with Some v -> v | None -> 1 in
    Hashtbl.replace next_ifid ia (v + 1);
    v
  in
  let get ia =
    match Hashtbl.find_opt nodes ia with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "Mesh.create: link endpoint %s unknown" (Ia.to_string ia))
  in
  let link_arr =
    Array.of_list
      (List.mapi
         (fun idx spec ->
           let na = get spec.l_a and nb = get spec.l_b in
           let a_if = alloc spec.l_a and b_if = alloc spec.l_b in
           let role_a, role_b =
             match spec.cls with
             | Core_link -> (Core_nbr, Core_nbr)
             | Parent_child -> (Child, Parent)
             | Peering -> (Peer, Peer)
           in
           (* Prepend (O(1) per link); declaration order is restored by one
              List.rev per node below — appending with [@] here is O(deg^2)
              for the high-degree cores of generated meshes. *)
           na.nbrs <-
             {
               n_ifid = a_if;
               n_ia = spec.l_b;
               n_remote_ifid = b_if;
               n_cls = spec.cls;
               n_role = role_a;
               n_link = idx;
             }
             :: na.nbrs;
           nb.nbrs <-
             {
               n_ifid = b_if;
               n_ia = spec.l_a;
               n_remote_ifid = a_if;
               n_cls = spec.cls;
               n_role = role_b;
               n_link = idx;
             }
             :: nb.nbrs;
           { spec; a_if; b_if; l_up = true })
         links)
  in
  (* Finalise per-node neighbor state: restore declaration order and build
     the dense ifid table (ifids are allocated 1..degree per AS). *)
  Scion_util.Table.iter_sorted ~cmp:Ia.compare
    (fun _ia (n : node) ->
      n.nbrs <- List.rev n.nbrs;
      let tbl = Array.make (List.length n.nbrs + 1) None in
      List.iter (fun nb -> tbl.(nb.n_ifid) <- Some nb) n.nbrs;
      n.nbr_tbl <- tbl;
      n.q_tbl <- Array.make (Array.length tbl) None)
    nodes;
  let order = List.sort Ia.compare (List.map (fun s -> s.spec_ia) ases) in
  let routers = Hashtbl.create 64 in
  Scion_util.Table.iter_sorted ~cmp:Ia.compare
    (fun ia (n : node) ->
      let ifaces =
        List.map
          (fun nb -> { Router.ifid = nb.n_ifid; remote_ia = nb.n_ia; remote_ifid = nb.n_remote_ifid })
          n.nbrs
      in
      Hashtbl.replace routers ia (Router.create ?metrics ~ia ~key:n.fwkey ~ifaces ()))
    nodes;
  {
    cfg = config;
    rng;
    nodes;
    order;
    link_arr;
    trcs;
    cas;
    down_registry = Hashtbl.create 64;
    sent_log = Hashtbl.create 4096;
    cache = Sigcache.create ();
    routers;
    roots;
    seized = Hashtbl.create 4;
    rotations = 0;
    quarantine_events = 0;
    quarantine_drops = 0;
    verif_failures = 0;
    memo = Hashtbl.create 256;
    memo_hits = 0;
    memo_misses = 0;
    fanout_sends = 0;
    fanout_capped = 0;
    obs = Option.map (make_obs ~quarantine:(config.quarantine <> None)) metrics;
  }

(* --- Certificates --- *)

let renew_certificates t ~now =
  let renewed = ref 0 in
  List.iter
    (fun ia ->
      let n = node t ia in
      if Ca.needs_renewal n.cert ~now || not (Cert.in_validity n.cert now) then begin
        let ca = ca_for t.cas ia.Ia.isd in
        let fresh =
          match Ca.renew ca ~current:n.cert ~pubkey:n.pubkey ~now with
          | Ok c -> c
          | Error _ -> Ca.issue ca ~subject:ia ~pubkey:n.pubkey ~profile:n.nd_profile ~now
        in
        n.cert <- fresh;
        incr renewed
      end)
    t.order;
  (match t.obs with None -> () | Some o -> M.add o.o_cert_renewals !renewed);
  !renewed

(* --- Beaconing --- *)

let cert_lookup t ia =
  match Hashtbl.find_opt t.nodes ia with
  | None -> None
  | Some n -> (
      match Hashtbl.find_opt t.cas ia.Ia.isd with
      | None -> None
      | Some ca -> (
          match Hashtbl.find_opt t.trcs ia.Ia.isd with
          | None -> None
          | Some trc -> Some (n.cert, Ca.ca_cert ca, trc)))

let cert_material = cert_lookup

(* The neighbor a PCB arrived from: the sender's (last) entry names its
   egress interface, and one (IA, remote ifid) pair names exactly one link. *)
let sender (n : node) (pcb : Pcb.t) =
  match List.rev pcb.Pcb.entries with
  | [] -> None
  | last :: _ ->
      List.find_opt
        (fun nb ->
          Ia.equal nb.n_ia last.Pcb.ia
          && nb.n_remote_ifid = last.Pcb.hop.Scion_dataplane.Path.cons_egress)
        n.nbrs

let peer_links_of (n : node) t =
  List.filter_map
    (fun nb ->
      if nb.n_cls = Peering && t.link_arr.(nb.n_link).l_up then
        Some (nb.n_ia, nb.n_ifid, nb.n_remote_ifid)
      else None)
    n.nbrs

(* Beacon-origin containment: a neighbor interface that keeps failing
   verification stops being processed for a while. Windows are paced by
   [Scion_util.Backoff] with zero jitter, so quarantine never draws from
   any RNG stream. *)
let quarantined (n : node) ifid ~now =
  if ifid >= 0 && ifid < Array.length n.q_tbl then
    match n.q_tbl.(ifid) with Some st -> now < st.q_until | None -> false
  else false

let strike t (n : node) (nb : neighbor) ~now =
  match t.cfg.quarantine with
  | None -> ()
  | Some q ->
      let st =
        match n.q_tbl.(nb.n_ifid) with
        | Some st -> st
        | None ->
            let st = { strikes = 0; offences = 0; q_until = neg_infinity } in
            n.q_tbl.(nb.n_ifid) <- Some st;
            st
      in
      st.strikes <- st.strikes + 1;
      if st.strikes >= q.q_threshold then begin
        st.strikes <- 0;
        st.offences <- st.offences + 1;
        let delay_ms =
          Scion_util.Backoff.delay_ms q.q_backoff ~rng:t.rng ~attempt:st.offences
        in
        st.q_until <- now +. (delay_ms /. 1000.0);
        t.quarantine_events <- t.quarantine_events + 1;
        match t.obs with
        | Some { o_quarantine_events = Some c; _ } -> M.inc c
        | Some _ | None -> ()
      end

(* The gates a PCB passes before anything is counted: it must be
   structurally sound, arrive over a declared, up link from the sender,
   and the sender must have the expected topological role. None of them
   reads state that a reception writes. *)
let gate t (receiver : node) ~(expected_role : role) pcb =
  match Pcb.structural_check pcb ~receiver:receiver.nd_ia with
  | Error _ -> None
  | Ok () -> (
      match sender receiver pcb with
      | Some nb when nb.n_role = expected_role && t.link_arr.(nb.n_link).l_up -> Some nb
      | Some _ | None -> None)

(* Reception of a PCB that passed [gate] from neighbor [nb]. *)
let accept t (receiver : node) (nb : neighbor) pcb ~now store =
  if quarantined receiver nb.n_ifid ~now then begin
    t.quarantine_drops <- t.quarantine_drops + 1;
    (match t.obs with
    | Some { o_quarantine_drops = Some c; _ } -> M.inc c
    | Some _ | None -> ());
    false
  end
  else
    let ok =
      if t.cfg.verify_pcbs then begin
        (* Freshness first: a replayed beacon past its hop expiry is
           rejected even when its signatures still verify. *)
        let fresh = Pcb.expiry pcb > now in
        let valid =
          fresh
          &&
          match Pcb.verify pcb ~cache:t.cache ~lookup:(cert_lookup t) ~now with
          | Ok () -> true
          | Error _ -> false
        in
        if not valid then begin
          t.verif_failures <- t.verif_failures + 1;
          (match t.obs with None -> () | Some o -> M.inc o.o_verif_failures);
          strike t receiver nb ~now
        end;
        valid
      end
      else true
    in
    if ok then
      match Beacon_store.insert store pcb with
      | Beacon_store.Added | Beacon_store.Replaced -> true
      | Beacon_store.Rejected_full | Beacon_store.Rejected_duplicate -> false
    else false

let receive_pcb t receiver ~expected_role pcb ~now store =
  match gate t receiver ~expected_role pcb with
  | None -> false
  | Some nb -> accept t receiver nb pcb ~now store

let send_once t ~sender ~egress ~kind pcb =
  (* Dedup log so each (pcb, link) pair is extended and delivered once; the
     egress interface id distinguishes parallel links to the same AS. The
     key is only ever compared, so the PCB's interface encoding goes in as
     it is, unhashed. Its length is a multiple of 12 and an egress id has
     at most 5 digits, so no two keys of one kind and sender alias across
     the egress digits. *)
  let key = kind ^ Ia.to_string sender ^ "#" ^ string_of_int egress ^ Pcb.interface_encoding pcb in
  if Hashtbl.mem t.sent_log key then None
  else begin
    Hashtbl.replace t.sent_log key ();
    Some ()
  end

(* Deliver what one sender queued in one origination or propagation step.
   Each PCB passes [gate] first, and only the PCBs that pass go further.
   With verification on, the entry the sender just signed is proved for
   every gated PCB that is fresh and not arriving on a quarantined
   interface, in one batch under the sender's key; then each gated PCB is
   accepted in the order it was queued. Deferring the receptions to the
   end of the sender's step changes nothing: the step reads only its own
   stores, [sent_log], its budget, the link states and [t.rng], and
   [accept] writes none of them
   (a strike draws from [t.rng] only with a jittered backoff, which
   [create] refuses). A strike inside this delivery can only open or
   extend a quarantine window, never shorten one, so [accept] re-checks
   quarantine and a PCB left out of the proof for it is still dropped. A
   later node of the same round, by contrast, reads stores that earlier
   receptions wrote, which is why the batch is per sender and not per
   round. [Sigcache.prove] counts nothing and a rejected batch records
   nothing, so every verdict and every hit and miss is what immediate
   delivery would give. *)
let deliver t ~now queued =
  let gated =
    List.filter_map
      (fun (receiver, expected_role, pcb, store) ->
        Option.map (fun nb -> (receiver, nb, pcb, store)) (gate t receiver ~expected_role pcb))
      queued
  in
  if t.cfg.verify_pcbs then
    Sigcache.prove t.cache
      (List.filter_map
         (fun (receiver, nb, pcb, _) ->
           if quarantined receiver nb.n_ifid ~now || Pcb.expiry pcb <= now then None
           else
             match Pcb.newest_signed pcb with
             | None -> None
             | Some (ia, msg, signature) ->
                 Option.map
                   (fun (as_cert, _, _) -> (as_cert.Cert.pubkey, msg, signature))
                   (cert_lookup t ia))
         gated);
  List.iter (fun (receiver, nb, pcb, store) -> ignore (accept t receiver nb pcb ~now store)) gated

let run_beaconing t ~now =
  Sigcache.next_generation t.cache;
  ignore (renew_certificates t ~now);
  Hashtbl.reset t.memo;
  Hashtbl.reset t.down_registry;
  Hashtbl.reset t.sent_log;
  List.iter
    (fun ia ->
      let n = node t ia in
      Beacon_store.clear n.store_intra;
      Beacon_store.clear n.store_core;
      n.ups <- [];
      n.cores_terminated <- [])
    t.order;
  let extend_from (n : node) pcb ~ingress ~egress =
    Pcb.extend pcb ~ia:n.nd_ia ~fwkey:n.fwkey ~signer:n.signer ~ingress ~egress
      ~peers:(peer_links_of n t) ~note:n.nd_note ()
  in
  (* Origination. *)
  List.iter
    (fun ia ->
      let n = node t ia in
      if n.nd_core then begin
        let queued = ref [] in
        List.iter
          (fun nb ->
            if t.link_arr.(nb.n_link).l_up then begin
              let recv = node t nb.n_ia in
              let originate expected_role store =
                let pcb = Pcb.originate ~rng:t.rng ~now in
                let pcb = extend_from n pcb ~ingress:0 ~egress:nb.n_ifid in
                queued := (recv, expected_role, pcb, store) :: !queued
              in
              match nb.n_role with
              | Core_nbr -> originate Core_nbr recv.store_core
              | Child -> originate Parent recv.store_intra
              | Parent | Peer -> ()
            end)
          n.nbrs;
        deliver t ~now (List.rev !queued)
      end)
    t.order;
  (* Propagation rounds. Each extension signs, so per-node sends are the
     cost driver at scale; [fanout_cap] bounds them per node per round
     (sends beyond the budget are dropped and counted, never an error). *)
  let per_round_budget =
    match t.cfg.fanout_cap with Some c -> c | None -> max_int
  in
  for _round = 1 to t.cfg.rounds do
    List.iter
      (fun ia ->
        let n = node t ia in
        let budget = ref per_round_budget in
        let queued = ref [] in
        let propagate ~kind ~expected_role store_of nb pcb =
          if not (Pcb.contains pcb nb.n_ia) then begin
            if !budget <= 0 then t.fanout_capped <- t.fanout_capped + 1
            else begin
              match send_once t ~sender:n.nd_ia ~egress:nb.n_ifid ~kind pcb with
              | None -> ()
              | Some () -> (
                  match sender n pcb with
                  | None -> ()
                  | Some from ->
                      decr budget;
                      t.fanout_sends <- t.fanout_sends + 1;
                      let ext = extend_from n pcb ~ingress:from.n_ifid ~egress:nb.n_ifid in
                      let recv = node t nb.n_ia in
                      queued := (recv, expected_role, ext, store_of recv) :: !queued)
            end
          end
        in
        (* Intra-ISD beacons flow to children. *)
        let intra = Beacon_store.best n.store_intra ~k:t.cfg.propagate_k in
        List.iter
          (fun nb ->
            if nb.n_role = Child && t.link_arr.(nb.n_link).l_up then
              List.iter
                (propagate ~kind:"i" ~expected_role:Parent (fun nd -> nd.store_intra) nb)
                intra)
          n.nbrs;
        (* Core beacons flow across core links. *)
        if n.nd_core then begin
          let core = Beacon_store.best n.store_core ~k:t.cfg.propagate_k in
          List.iter
            (fun nb ->
              if nb.n_role = Core_nbr && t.link_arr.(nb.n_link).l_up then
                List.iter
                  (propagate ~kind:"c" ~expected_role:Core_nbr (fun nd -> nd.store_core) nb)
                  core)
            n.nbrs
        end;
        deliver t ~now (List.rev !queued))
      t.order
  done;
  (* Termination and registration. *)
  List.iter
    (fun ia ->
      let n = node t ia in
      if not n.nd_core then
        List.iter
          (fun pcb ->
            match sender n pcb with
            | None -> ()
            | Some from ->
                let term = extend_from n pcb ~ingress:from.n_ifid ~egress:0 in
                n.ups <- term :: n.ups;
                let existing =
                  match Hashtbl.find_opt t.down_registry n.nd_ia with Some l -> l | None -> []
                in
                Hashtbl.replace t.down_registry n.nd_ia (term :: existing))
          (Beacon_store.all n.store_intra);
      if n.nd_core then
        List.iter
          (fun pcb ->
            match sender n pcb with
            | None -> ()
            | Some from ->
                let term = extend_from n pcb ~ingress:from.n_ifid ~egress:0 in
                n.cores_terminated <- term :: n.cores_terminated)
          (Beacon_store.all n.store_core))
    t.order;
  match t.obs with
  | None -> ()
  | Some o ->
      M.inc o.o_beaconing_runs;
      M.set o.o_sigcache_hits (float_of_int (Sigcache.hits t.cache));
      M.set o.o_sigcache_misses (float_of_int (Sigcache.misses t.cache))

let up_segments t ia = (node t ia).ups
let core_segments_at t ia = (node t ia).cores_terminated

let down_segments t ia =
  match Hashtbl.find_opt t.down_registry ia with Some l -> l | None -> []

type walk_result =
  | Walk_delivered of { dst : Ia.t; hops : int; packet : Scion_dataplane.Packet.t }
  | Walk_dropped of { at : Ia.t; reason : Router.drop_reason }

(* Where the stepper left a packet. An arrived packet is still in the
   view; only callers that return it decode it. *)
type stop =
  | Arrived of { at : Ia.t; hops : int }
  | Stopped of { at : Ia.t; reason : Router.drop_reason }

(* The stepper pushes a wire view through [Router.process_view] hop by
   hop; the border routers patch the buffer in place. *)
let walk_view t ~now ~from ~max_steps v =
  let rec step at ingress hops =
    if hops > max_steps then
      Stopped { at; reason = Router.Path_malformed "forwarding loop suspected" }
    else begin
      let r = router t at in
      let verdict = Router.process_view r ~now ~ingress v in
      if verdict = 0 then Arrived { at; hops }
      else if verdict < 0 then Stopped { at; reason = Router.last_drop r }
      else begin
        let egress = verdict in
        let n = node t at in
        let nbr =
          if egress >= 0 && egress < Array.length n.nbr_tbl then n.nbr_tbl.(egress) else None
        in
        match nbr with
        | None -> Stopped { at; reason = Router.Unknown_interface egress }
        | Some nb ->
            if not t.link_arr.(nb.n_link).l_up then
              Stopped { at; reason = Router.Interface_down egress }
            else step nb.n_ia nb.n_remote_ifid (hops + 1)
      end
    end
  in
  step from 0 0

let outcome v = function
  | Arrived { at; hops } ->
      Walk_delivered { dst = at; hops; packet = Scion_dataplane.Packet.View.to_packet v }
  | Stopped { at; reason } -> Walk_dropped { at; reason }

let walk_packet t ~now ~from ?(max_steps = 64) pkt =
  let v = Scion_dataplane.Packet.View.of_packet pkt in
  outcome v (walk_view t ~now ~from ~max_steps v)

(* The end-host addresses of every walked packet, parsed once. *)
let walk_src_host = Scion_dataplane.Packet.Ipv4 (Scion_addr.Ipv4.of_string "10.0.0.1")
let walk_dst_host = Scion_dataplane.Packet.Ipv4 (Scion_addr.Ipv4.of_string "10.0.0.2")

(* A fresh wire view of a walk over [fp]: its header template, encoded on
   the path's first walk, plus the payload. *)
let path_view (fp : Combinator.fullpath) ~proto payload =
  let module Packet = Scion_dataplane.Packet in
  if fp.Combinator.wire = "" then
    fp.Combinator.wire <-
      Packet.encode
        (Packet.make ~proto:Packet.Udp
           ~src:(fp.Combinator.src, walk_src_host)
           ~dst:(fp.Combinator.dst, walk_dst_host)
           ~path:(Packet.Standard (Combinator.fresh_raw fp))
           "");
  Packet.View.of_header fp.Combinator.wire ~proto payload

let walk_path t ~now (fp : Combinator.fullpath) v =
  walk_view t ~now ~from:fp.Combinator.src ~max_steps:(3 * Combinator.num_hops fp) v

let walk t ~now ?(payload = "") ?(proto = Scion_dataplane.Packet.Udp) fp =
  let v = path_view fp ~proto payload in
  outcome v (walk_path t ~now fp v)

let path_alive t ~now fp =
  match walk_path t ~now fp (path_view fp ~proto:Scion_dataplane.Packet.Udp "") with
  | Arrived { at; _ } -> Ia.equal at fp.Combinator.dst
  | Stopped _ -> false

let walk_tampered t ~now ~tamper ~payload fp =
  let v = path_view fp ~proto:Scion_dataplane.Packet.Udp payload in
  tamper v;
  match walk_path t ~now fp v with Arrived _ -> true | Stopped _ -> false

let paths t ~src ~dst =
  if Ia.equal src dst then []
  else begin
    match Hashtbl.find_opt t.memo (src, dst) with
    | Some cached ->
        t.memo_hits <- t.memo_hits + 1;
        cached
    | None ->
        t.memo_misses <- t.memo_misses + 1;
        let src_core = is_core t src and dst_core = is_core t dst in
        let ups = if src_core then [] else up_segments t src in
        let downs = if dst_core then [] else down_segments t dst in
        let core_sources =
          if src_core then [ src ]
          else List.sort_uniq Ia.compare (List.map Pcb.origin ups)
        in
        let cores = List.concat_map (fun c -> core_segments_at t c) core_sources in
        let built = Combinator.build ~ups ~cores ~downs ~src ~dst ~src_core ~dst_core in
        Hashtbl.replace t.memo (src, dst) built;
        built
  end

let memo_stats t = (t.memo_hits, t.memo_misses)
let beacon_fanout t = t.fanout_sends
let fanout_capped t = t.fanout_capped

(* Rough live control-plane footprint of one AS: every stored or terminated
   PCB costs a fixed overhead plus a per-entry share (hop field, signature,
   metadata). A model, not a measurement — but a deterministic one, which
   is what the scaling figure needs. *)
let state_bytes t ia =
  let n = node t ia in
  let pcb_bytes acc pcb = acc + 64 + (96 * Pcb.num_entries pcb) in
  let acc = List.fold_left pcb_bytes 0 (Beacon_store.all n.store_intra) in
  let acc = List.fold_left pcb_bytes acc (Beacon_store.all n.store_core) in
  let acc = List.fold_left pcb_bytes acc n.ups in
  List.fold_left pcb_bytes acc n.cores_terminated

(* --- Containment state --- *)

let quarantine_events t = t.quarantine_events
let quarantine_drops t = t.quarantine_drops

(* --- TRC rotation drill --- *)

let seed_str t = Int64.to_string t.cfg.seed

let key_epoch t =
  Scion_util.Table.fold_sorted
    (fun isd (trc : Trc.t) acc ->
      Printf.sprintf "%s%d:%d;" acc isd trc.Trc.serial)
    t.trcs ""

let rotations t = t.rotations

let rotate_trc t ~isd ~now =
  let prev = trc t isd in
  let old_name, old_priv, _ =
    match Hashtbl.find_opt t.roots isd with
    | Some r -> r
    | None -> invalid_arg (Printf.sprintf "Mesh.rotate_trc: unknown ISD %d" isd)
  in
  t.rotations <- t.rotations + 1;
  let gen = t.rotations in
  let ten_years = 10.0 *. 365.0 *. 24.0 *. 3600.0 in
  let root_name = Printf.sprintf "root-%d-r%d" isd gen in
  let root_priv, root_pub =
    Schnorr.derive ~seed:(Printf.sprintf "%s/root/%d/r%d" (seed_str t) isd gen)
  in
  let next =
    match
      Trc.update ~prev
        ~rotate_roots:[ { Trc.name = root_name; key = root_pub } ]
        ~validity:(now -. 1.0, now +. ten_years)
        ~votes:[ (old_name, old_priv) ]
        ()
    with
    | Ok next -> next
    | Error e -> invalid_arg ("Mesh.rotate_trc: " ^ e)
  in
  Hashtbl.replace t.trcs isd next;
  Hashtbl.replace t.roots isd (root_name, root_priv, root_pub);
  (* Fresh CA keypair chained to the new root. *)
  let old_ca = ca_for t.cas isd in
  let ca_ia = Ca.ia old_ca in
  let ca_profile = (Ca.ca_cert old_ca).Cert.profile in
  let ca_priv, ca_pub =
    Schnorr.derive ~seed:(Printf.sprintf "%s/ca/%d/r%d" (seed_str t) isd gen)
  in
  let ca_cert =
    Cert.sign ~kind:Cert.Ca ~profile:ca_profile ~serial:(1 + gen) ~subject:ca_ia ~pubkey:ca_pub
      ~validity:(now -. 1.0, now +. (ten_years /. 2.0))
      ~issuer:ca_ia ~issuer_key_name:root_name ~issuer_priv:root_priv
  in
  Hashtbl.replace t.cas isd
    (Ca.create ~ia:ca_ia ~priv:ca_priv ~cert:ca_cert ~default_validity:cert_validity ());
  (* Re-issue every AS certificate in the ISD from the node's true key:
     attacker-held identities are rotated out here. *)
  let ca = ca_for t.cas isd in
  List.iter
    (fun ia ->
      if ia.Ia.isd = isd then begin
        Hashtbl.remove t.seized ia;
        let n = node t ia in
        n.cert <- Ca.issue ca ~subject:ia ~pubkey:n.pubkey ~profile:n.nd_profile ~now
      end)
    t.order;
  (* Bind the signature cache to the new key epoch: verdicts produced
     under the rotated-out (possibly compromised) root are dropped. *)
  Sigcache.set_epoch t.cache (key_epoch t)

(* --- Byzantine surface --- *)

let seize_as t ~ia ~now =
  let n = node t ia in
  let atk_priv, atk_pub =
    Schnorr.derive
      ~seed:(Printf.sprintf "%s/attacker/%s/r%d" (seed_str t) (Ia.to_string ia) t.rotations)
  in
  let ca = ca_for t.cas ia.Ia.isd in
  n.cert <- Ca.issue ca ~subject:ia ~pubkey:atk_pub ~profile:n.nd_profile ~now;
  Hashtbl.replace t.seized ia atk_priv

let signer_of t (n : node) =
  match Hashtbl.find_opt t.seized n.nd_ia with Some atk -> atk | None -> n.signer

let inject_pcb t ~receiver pcb ~now =
  let n = node t receiver in
  match sender n pcb with
  | Some { n_role = Parent; _ } -> receive_pcb t n ~expected_role:Parent pcb ~now n.store_intra
  | Some { n_role = Core_nbr; _ } -> receive_pcb t n ~expected_role:Core_nbr pcb ~now n.store_core
  | Some { n_role = Child | Peer; _ } | None -> false

(* Flip one signature byte: structurally intact, cryptographically dead. *)
let tamper_signature s =
  if String.length s = 0 then "\x01"
  else begin
    let b = Bytes.of_string s in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
    Bytes.to_string b
  end

let tamper_last_entry pcb =
  match List.rev pcb.Pcb.entries with
  | [] -> pcb
  | last :: rest ->
      let entries =
        List.rev ({ last with Pcb.signature = tamper_signature last.Pcb.signature } :: rest)
      in
      { pcb with Pcb.entries }

(* One single-entry beacon leaving [n] over [egress], signed by whoever
   currently holds the AS identity (the attacker, after [seize_as]). *)
let craft_beacon t (n : node) ~rng ~now ~egress =
  let pcb = Pcb.originate ~rng ~now in
  Pcb.extend pcb ~ia:n.nd_ia ~fwkey:n.fwkey ~signer:(signer_of t n) ~ingress:0 ~egress
    ~peers:(peer_links_of n t) ~note:"byzantine" ()

let downstream_nbrs (n : node) t =
  List.filter
    (fun nb ->
      (nb.n_role = Child || nb.n_role = Core_nbr) && t.link_arr.(nb.n_link).l_up)
    n.nbrs

let inject_corrupt_beacons t ~compromised ~rng ~now ~count =
  let n = node t compromised in
  let targets = downstream_nbrs n t in
  if targets = [] then 0
  else begin
    let accepted = ref 0 in
    for i = 0 to count - 1 do
      let nb = List.nth targets (i mod List.length targets) in
      (* A seized identity signs with the attacker's (certified) key, so
         its corruption is the content, not the signature bytes; an
         unseized attacker can only forge, which tampering models. *)
      let pcb = craft_beacon t n ~rng ~now ~egress:nb.n_ifid in
      let pcb = if Hashtbl.mem t.seized compromised then pcb else tamper_last_entry pcb in
      if inject_pcb t ~receiver:nb.n_ia pcb ~now then incr accepted
    done;
    !accepted
  end

let inject_replayed_beacons t ~compromised ~rng ~now ~age_s ~count =
  let n = node t compromised in
  let targets = downstream_nbrs n t in
  if targets = [] then 0
  else begin
    let accepted = ref 0 in
    for i = 0 to count - 1 do
      let nb = List.nth targets (i mod List.length targets) in
      (* Validly signed at origination time, but [age_s] stale. *)
      let pcb = craft_beacon t n ~rng ~now:(now -. age_s) ~egress:nb.n_ifid in
      if inject_pcb t ~receiver:nb.n_ia pcb ~now then incr accepted
    done;
    !accepted
  end

(* A down-segment the byzantine AS writes straight into the registry: the
   AS-level route reads as core -> victim, but every hop field is MACed
   with the attacker's forwarding key, so the data plane rejects it at the
   first honest router. Registration is unauthenticated (the modeled
   path-server gap); containment is the daemon's poisoned-path feedback. *)
let register_rogue_segments t ~compromised ~victim ~rng ~now ~count =
  let atk = node t compromised in
  let origin =
    match down_segments t victim with
    | pcb :: _ -> Pcb.origin pcb
    | [] -> (
        match List.find_opt (fun ia -> (node t ia).nd_core) t.order with
        | Some ia -> ia
        | None -> invalid_arg "Mesh.register_rogue_segments: no core AS")
  in
  let registered = ref 0 in
  for _i = 1 to count do
    let pcb = Pcb.originate ~rng ~now in
    let pcb =
      Pcb.extend pcb ~ia:origin ~fwkey:atk.fwkey ~signer:(signer_of t atk) ~ingress:0 ~egress:1
        ~note:"rogue" ()
    in
    let pcb =
      Pcb.extend pcb ~ia:victim ~fwkey:atk.fwkey ~signer:(signer_of t atk) ~ingress:1 ~egress:0
        ~note:"rogue" ()
    in
    let existing =
      match Hashtbl.find_opt t.down_registry victim with Some l -> l | None -> []
    in
    Hashtbl.replace t.down_registry victim (pcb :: existing);
    incr registered
  done;
  (* The path memo predates the poisoning; drop it so lookups see the
     registry as it now stands. *)
  Hashtbl.reset t.memo;
  !registered
