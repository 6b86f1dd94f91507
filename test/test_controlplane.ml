open Scion_controlplane
module Ia = Scion_addr.Ia
module Cert = Scion_cppki.Cert
module Router = Scion_dataplane.Router

let ia = Ia.of_string
let now = 1_700_000_000.0

(* Two-ISD test topology with multihoming, a two-level hierarchy, a peering
   link and a leaf reachable from both sides:

   ISD 1:  cores C1 -- C2 (and both -- C3 in ISD 2)
           C1 > A, C1 > D, C2 > B, C2 > D
           A > E, B > F, A > H, B > H
           A -- B (peering)
   ISD 2:  core C3 > G                                              *)

let c1 = ia "1-2:0:1"
let c2 = ia "1-2:0:2"
let c3 = ia "2-2:0:1"
let a = ia "1-10"
let b = ia "1-11"
let d = ia "1-12"
let e = ia "1-13"
let f = ia "1-14"
let h = ia "1-15"
let g = ia "2-20"

let spec ?(core = false) ?(ca = false) ?(profile = Cert.Open_source) spec_ia =
  { Mesh.spec_ia; core; ca; profile; note = "test" }

let link ?(cls = Mesh.Parent_child) l_a l_b = { Mesh.l_a; l_b; cls }

let build_mesh ?config ?metrics () =
  let ases =
    [
      spec ~core:true ~ca:true c1;
      spec ~core:true ~profile:Cert.Proprietary c2;
      spec ~core:true ~ca:true c3;
      spec a;
      spec ~profile:Cert.Proprietary b;
      spec d;
      spec e;
      spec f;
      spec h;
      spec g;
    ]
  in
  let links =
    [
      link ~cls:Mesh.Core_link c1 c2;
      link ~cls:Mesh.Core_link c1 c3;
      link ~cls:Mesh.Core_link c2 c3;
      link c1 a;
      link c1 d;
      link c2 b;
      link c2 d;
      link a e;
      link b f;
      link a h;
      link b h;
      link c3 g;
      link ~cls:Mesh.Peering a b;
    ]
  in
  let m = Mesh.create ?config ?metrics ~now ~ases ~links () in
  Mesh.run_beaconing m ~now;
  m

let mesh = lazy (build_mesh ())

let paths m src dst = Mesh.paths m ~src ~dst

let test_beaconing_produces_segments () =
  let m = Lazy.force mesh in
  Alcotest.(check bool) "E has up segments" true (Mesh.up_segments m e <> []);
  (* A path from a core AS down to E needs E's registered down segments. *)
  Alcotest.(check bool) "E has down segments" true (paths m c1 e <> []);
  Alcotest.(check bool) "C1 has core segments" true (Mesh.core_segments_at m c1 <> []);
  Alcotest.(check bool) "no verification failures" true (Mesh.verification_failures m = 0)

let test_paths_exist_and_are_sorted () =
  let m = Lazy.force mesh in
  let ps = paths m e f in
  Alcotest.(check bool) "paths E->F" true (List.length ps >= 3);
  let hops = List.map Combinator.num_hops ps in
  Alcotest.(check (list int)) "sorted by hops" (List.sort compare hops) hops

let test_all_paths_data_plane_valid () =
  let m = Lazy.force mesh in
  let pairs = [ (e, f); (e, h); (a, d); (g, e); (c1, e); (e, c3); (c1, c3); (e, d); (h, g) ] in
  List.iter
    (fun (src, dst) ->
      let ps = paths m src dst in
      Alcotest.(check bool)
        (Printf.sprintf "paths exist %s->%s" (Ia.to_string src) (Ia.to_string dst))
        true (ps <> []);
      List.iter
        (fun fp ->
          match Mesh.walk m ~now fp with
          | Mesh.Walk_delivered { dst = at; hops; _ } ->
              Alcotest.(check bool) "delivered at dst" true (Ia.equal at dst);
              Alcotest.(check int) "hop count matches trace" (Combinator.num_hops fp) (hops + 1)
          | Mesh.Walk_dropped { at; reason } ->
              Alcotest.fail
                (Printf.sprintf "%s->%s dropped at %s: %s" (Ia.to_string src) (Ia.to_string dst)
                   (Ia.to_string at)
                   (Router.drop_reason_to_string reason)))
        ps)
    pairs

let test_fingerprints_unique () =
  let m = Lazy.force mesh in
  let ps = paths m e h in
  let fps = List.map (fun p -> p.Combinator.fingerprint) ps in
  Alcotest.(check int) "unique" (List.length fps) (List.length (List.sort_uniq compare fps))

let test_peering_path_exists () =
  let m = Lazy.force mesh in
  let ps = paths m e f in
  (* The peering path E-A-(peer)-B-F has 4 ASes; any core route has >= 5. *)
  let shortest = List.hd ps in
  Alcotest.(check int) "peering path is shortest" 4 (Combinator.num_hops shortest);
  Alcotest.(check bool) "does not touch the core" false
    (Combinator.contains_ia shortest c1 || Combinator.contains_ia shortest c2);
  match Mesh.walk m ~now shortest with
  | Mesh.Walk_delivered _ -> ()
  | Mesh.Walk_dropped { at; reason } ->
      Alcotest.fail
        (Printf.sprintf "peering path dropped at %s: %s" (Ia.to_string at)
           (Router.drop_reason_to_string reason))

let test_shortcut_path_exists () =
  let m = Lazy.force mesh in
  let ps = paths m e h in
  (* Shortcut at A: E-A-H without climbing to C1. *)
  let shortest = List.hd ps in
  Alcotest.(check int) "shortcut is 3 ASes" 3 (Combinator.num_hops shortest);
  Alcotest.(check bool) "avoids core" false (Combinator.contains_ia shortest c1)

let test_onpath_destination () =
  let m = Lazy.force mesh in
  (* A is an ancestor of E: expect a direct 2-AS path (up-segment cut). *)
  let ps = paths m e a in
  Alcotest.(check bool) "paths exist" true (ps <> []);
  Alcotest.(check int) "direct path" 2 (Combinator.num_hops (List.hd ps));
  (* And the reverse: A -> E via the down segment cut. *)
  let ps' = paths m a e in
  Alcotest.(check int) "down-cut path" 2 (Combinator.num_hops (List.hd ps'))

let test_multihomed_leaf_diversity () =
  let m = Lazy.force mesh in
  (* D hangs off both cores; E should reach it via C1 directly and via C2. *)
  let ps = paths m e d in
  Alcotest.(check bool) "at least 2 paths" true (List.length ps >= 2);
  let has_via ia = List.exists (fun p -> Combinator.contains_ia p ia) ps in
  Alcotest.(check bool) "some path via C1" true (has_via c1);
  Alcotest.(check bool) "some path via C2" true (has_via c2)

let test_cross_isd () =
  let m = Lazy.force mesh in
  let ps = paths m g e in
  Alcotest.(check bool) "cross-ISD paths" true (ps <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool) "goes through C3" true (Combinator.contains_ia p c3))
    ps

let test_reply_path () =
  let m = Lazy.force mesh in
  let ps = paths m e f in
  List.iter
    (fun fp ->
      match Mesh.walk m ~now ~payload:"ping" fp with
      | Mesh.Walk_dropped _ -> Alcotest.fail "forward walk failed"
      | Mesh.Walk_delivered { packet; _ } -> (
          let reply = Scion_dataplane.Packet.reply_skeleton packet ~payload:"pong" in
          match Mesh.walk_packet m ~now ~from:f reply with
          | Mesh.Walk_delivered { dst; packet = p; _ } ->
              Alcotest.(check bool) "reply reaches E" true (Ia.equal dst e);
              Alcotest.(check string) "payload" "pong" p.Scion_dataplane.Packet.payload
          | Mesh.Walk_dropped { at; reason } ->
              Alcotest.fail
                (Printf.sprintf "reply dropped at %s: %s" (Ia.to_string at)
                   (Router.drop_reason_to_string reason))))
    ps

let test_tampered_mac_rejected () =
  let m = Lazy.force mesh in
  let fp = List.hd (paths m e f) in
  let raw = Combinator.fresh_raw fp in
  (* Corrupt the MAC of the second hop field. *)
  let hop = raw.Scion_dataplane.Path.hops.(1) in
  let bad_mac =
    String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 0xFF) else c)
      hop.Scion_dataplane.Path.mac
  in
  raw.Scion_dataplane.Path.hops.(1) <- { hop with Scion_dataplane.Path.mac = bad_mac };
  let pkt =
    Scion_dataplane.Packet.make ~proto:Scion_dataplane.Packet.Udp
      ~src:(e, Scion_dataplane.Packet.Ipv4 (Scion_addr.Ipv4.of_string "10.0.0.1"))
      ~dst:(f, Scion_dataplane.Packet.Ipv4 (Scion_addr.Ipv4.of_string "10.0.0.2"))
      ~path:(Scion_dataplane.Packet.Standard raw) "x"
  in
  match Mesh.walk_packet m ~now ~from:e pkt with
  | Mesh.Walk_dropped { reason = Router.Invalid_mac; _ } -> ()
  | Mesh.Walk_dropped { reason; _ } ->
      Alcotest.fail ("wrong drop reason: " ^ Router.drop_reason_to_string reason)
  | Mesh.Walk_delivered _ -> Alcotest.fail "tampered packet delivered"

let test_expired_hops_rejected () =
  let m = Lazy.force mesh in
  let fp = List.hd (paths m e f) in
  let two_days = now +. (2.0 *. 86400.0) in
  match Mesh.walk m ~now:two_days fp with
  | Mesh.Walk_dropped { reason = Router.Expired_hop _; _ } -> ()
  | Mesh.Walk_dropped { reason; _ } ->
      Alcotest.fail ("wrong drop reason: " ^ Router.drop_reason_to_string reason)
  | Mesh.Walk_delivered _ -> Alcotest.fail "expired path delivered"

let test_link_failure_prunes_paths () =
  let m = build_mesh () in
  let before = List.length (paths m e f) in
  (* Cut the core link C1-C2; the peering route must survive. *)
  List.iter (fun id -> Mesh.set_link_state m id ~up:false) (Mesh.find_links m c1 c2);
  (* Data plane reacts immediately: paths through the dead link now fail. *)
  let dead_now =
    List.filter (fun p -> not (Mesh.path_alive m ~now p)) (paths m e f)
  in
  Alcotest.(check bool) "some paths die on the data plane" true (dead_now <> []);
  (* After re-beaconing the control plane stops offering them. *)
  Mesh.run_beaconing m ~now;
  let after = paths m e f in
  Alcotest.(check bool) "fewer paths" true (List.length after < before);
  Alcotest.(check bool) "peering path survives" true
    (List.exists (fun p -> Combinator.num_hops p = 4) after);
  List.iter
    (fun p ->
      Alcotest.(check bool) "every remaining path alive" true (Mesh.path_alive m ~now p))
    after

let test_leaf_isolation () =
  let m = build_mesh () in
  List.iter (fun id -> Mesh.set_link_state m id ~up:false) (Mesh.find_links m a e);
  Mesh.run_beaconing m ~now;
  Alcotest.(check int) "E unreachable" 0 (List.length (paths m e f));
  List.iter (fun id -> Mesh.set_link_state m id ~up:true) (Mesh.find_links m a e);
  Mesh.run_beaconing m ~now;
  Alcotest.(check bool) "E reachable again" true (paths m e f <> [])

let test_cert_renewal () =
  let m = build_mesh () in
  let later = now +. (2.5 *. 86400.0) in
  let renewed = Mesh.renew_certificates m ~now:later in
  Alcotest.(check bool) "all ASes renewed" true (renewed >= 10);
  (* Re-beaconing at the later time must verify with the fresh certs. *)
  Mesh.run_beaconing m ~now:later;
  Alcotest.(check bool) "paths still valid" true (paths m e f <> []);
  Alcotest.(check int) "no verification failures" 0 (Mesh.verification_failures m)

let test_mixed_profiles_interoperate () =
  let m = Lazy.force mesh in
  (* B and C2 use the proprietary profile, the rest open-source; paths
     spanning both (e.g. E->F via C2) prove cross-stack interop. *)
  let ps = paths m e f in
  Alcotest.(check bool) "path crossing profiles" true
    (List.exists (fun p -> Combinator.contains_ia p c2) ps)

let test_pcb_verify_rejects_tamper () =
  let m = Lazy.force mesh in
  match Mesh.up_segments m e with
  | [] -> Alcotest.fail "no up segments"
  | pcb :: _ -> (
      let lookup = Mesh.cert_material m in
      let cache = Sigcache.create () in
      (match Pcb.verify pcb ~cache ~lookup ~now with
      | Ok () -> ()
      | Error err -> Alcotest.fail ("genuine PCB rejected: " ^ Pcb.check_error_to_string err));
      (* Tamper with a signed field of the first entry: verification must
         fail and name that entry. Every later entry signs over it, so
         every entry signature is a fresh miss, and all are looked up. *)
      let tampered =
        match pcb.Pcb.entries with
        | e0 :: rest -> { pcb with Pcb.entries = { e0 with Pcb.mtu = e0.Pcb.mtu + 1 } :: rest }
        | [] -> pcb
      in
      let m0 = Sigcache.misses cache in
      (match Pcb.verify tampered ~cache ~lookup ~now with
      | Error (Pcb.Bad_signature (ia, _)) ->
          Alcotest.(check bool) "first entry reported" true
            (match pcb.Pcb.entries with e0 :: _ -> Ia.equal ia e0.Pcb.ia | [] -> false);
          Alcotest.(check int) "every entry looked up"
            (m0 + List.length pcb.Pcb.entries)
            (Sigcache.misses cache)
      | Ok () -> Alcotest.fail "tampered PCB accepted"
      | Error err -> Alcotest.fail ("unexpected error: " ^ Pcb.check_error_to_string err));
      (* And with no certificate material at all. *)
      match Pcb.verify pcb ~cache ~lookup:(fun _ -> None) ~now with
      | Error (Pcb.Unknown_as _) -> ()
      | _ -> Alcotest.fail "expected unknown-as error with empty lookup")

let test_disjointness_metric () =
  let m = Lazy.force mesh in
  let ps = paths m e d in
  match ps with
  | p1 :: p2 :: _ ->
      let self = Combinator.disjointness p1 p1 in
      Alcotest.(check (float 1e-9)) "self disjointness 0" 0.0 self;
      let cross = Combinator.disjointness p1 p2 in
      Alcotest.(check bool) "cross in (0,1]" true (cross > 0.0 && cross <= 1.0)
  | _ -> Alcotest.fail "need two paths"

let test_beacon_store_policy () =
  let store = Beacon_store.create ~per_origin:2 () in
  let rng = Scion_util.Rng.create 1L in
  let fwkey = Scion_dataplane.Fwkey.of_master_secret "k" in
  let signer, _ = Scion_crypto.Schnorr.derive ~seed:"s" in
  let mk egress =
    let pcb = Pcb.originate ~rng ~now in
    Pcb.extend pcb ~ia:c1 ~fwkey ~signer ~ingress:0 ~egress ()
  in
  Alcotest.(check bool) "add 1" true (Beacon_store.insert store (mk 1) = Beacon_store.Added);
  Alcotest.(check bool) "add 2" true (Beacon_store.insert store (mk 2) = Beacon_store.Added);
  Alcotest.(check int) "count" 2 (List.length (Beacon_store.all store));
  (* Longer beacon into a full bucket is rejected. *)
  let long =
    let pcb = mk 3 in
    Pcb.extend pcb ~ia:c2 ~fwkey ~signer ~ingress:9 ~egress:4 ()
  in
  (* 'long' has origin c1 as well (first entry), bucket full with shorter. *)
  Alcotest.(check bool) "rejected"
    true
    (Beacon_store.insert store long = Beacon_store.Rejected_full);
  Alcotest.(check (list string)) "origins" [ Ia.to_string c1; Ia.to_string c1 ]
    (List.map (fun pcb -> Ia.to_string (Pcb.origin pcb)) (Beacon_store.all store))

(* The central soundness property, checked on random topologies: every path
   the control plane offers is accepted hop by hop by the data plane, and
   its reverse delivers the reply. Random topologies: 2 ISDs, 1-3 cores
   each, random leaf trees with multi-homing, parallel links and optional
   peering. *)
let qcheck_random_topology_paths_valid =
  let gen_topo =
    QCheck.Gen.(
      let* n_cores1 = 1 -- 3 in
      let* n_cores2 = 1 -- 2 in
      let* n_leaves1 = 1 -- 5 in
      let* n_leaves2 = 0 -- 3 in
      let* seed = 0 -- 10_000 in
      return (n_cores1, n_cores2, n_leaves1, n_leaves2, seed))
  in
  QCheck.Test.make ~name:"random topology: all paths data-plane valid" ~count:12
    (QCheck.make gen_topo)
    (fun (n_cores1, n_cores2, n_leaves1, n_leaves2, seed) ->
      let rng = Scion_util.Rng.create (Int64.of_int (seed + 77)) in
      let mk_ias isd n_cores n_leaves =
        ( List.init n_cores (fun i -> Ia.make isd (100 + i)),
          List.init n_leaves (fun i -> Ia.make isd (200 + i)) )
      in
      let cores1, leaves1 = mk_ias 1 n_cores1 n_leaves1 in
      let cores2, leaves2 = mk_ias 2 n_cores2 n_leaves2 in
      let all_cores = cores1 @ cores2 in
      let specs =
        List.map (fun i -> spec ~core:true ~ca:true i) [ List.hd cores1; List.hd cores2 ]
        @ List.map (fun i -> spec ~core:true i) (List.filter (fun c -> not (Ia.equal c (List.hd cores1)) && not (Ia.equal c (List.hd cores2))) all_cores)
        @ List.map (fun i -> spec i) (leaves1 @ leaves2)
      in
      (* Core mesh: chain plus random extras (possibly parallel). *)
      let core_links =
        let chain =
          let rec pairs = function
            | a :: (b :: _ as rest) -> link ~cls:Mesh.Core_link a b :: pairs rest
            | _ -> []
          in
          pairs all_cores
        in
        let extras =
          List.filter_map
            (fun _ ->
              let a = Scion_util.Rng.pick rng (Array.of_list all_cores) in
              let b = Scion_util.Rng.pick rng (Array.of_list all_cores) in
              if Ia.equal a b then None else Some (link ~cls:Mesh.Core_link a b))
            (List.init 3 Fun.id)
        in
        chain @ extras
      in
      (* Leaves attach to 1-2 parents in their ISD (cores or earlier leaves). *)
      let leaf_links isd_cores leaves =
        let rec go acc parents = function
          | [] -> acc
          | leaf :: rest ->
              let candidates = Array.of_list parents in
              let p1 = Scion_util.Rng.pick rng candidates in
              let acc = link p1 leaf :: acc in
              let acc =
                if Scion_util.Rng.bool rng then begin
                  let p2 = Scion_util.Rng.pick rng candidates in
                  if Ia.equal p1 p2 then acc else link p2 leaf :: acc
                end
                else acc
              in
              go acc (leaf :: parents) rest
        in
        go [] isd_cores leaves
      in
      let links =
        core_links @ leaf_links cores1 leaves1 @ leaf_links cores2 leaves2
        @
        (* Optional peering between two leaves of ISD 1. *)
        match leaves1 with
        | l1 :: l2 :: _ when Scion_util.Rng.bool rng -> [ link ~cls:Mesh.Peering l1 l2 ]
        | _ -> []
      in
      let config = { Mesh.default_config with Mesh.verify_pcbs = false; per_origin = 6 } in
      let m = Mesh.create ~config ~now ~ases:specs ~links () in
      Mesh.run_beaconing m ~now;
      (* Check several random ordered pairs. *)
      let everyone = Array.of_list (all_cores @ leaves1 @ leaves2) in
      let ok = ref true in
      for _ = 1 to 8 do
        let src = Scion_util.Rng.pick rng everyone in
        let dst = Scion_util.Rng.pick rng everyone in
        if not (Ia.equal src dst) then
          List.iter
            (fun fp ->
              (match Mesh.walk m ~now fp with
              | Mesh.Walk_delivered { dst = at; _ } -> if not (Ia.equal at dst) then ok := false
              | Mesh.Walk_dropped _ -> ok := false);
              (* And the reply path. *)
              match Mesh.walk m ~now ~payload:"ping" fp with
              | Mesh.Walk_delivered { packet; _ } -> (
                  let reply = Scion_dataplane.Packet.reply_skeleton packet ~payload:"pong" in
                  match Mesh.walk_packet m ~now ~from:dst reply with
                  | Mesh.Walk_delivered { dst = back; _ } ->
                      if not (Ia.equal back src) then ok := false
                  | Mesh.Walk_dropped _ -> ok := false)
              | Mesh.Walk_dropped _ -> ())
            (Mesh.paths m ~src ~dst)
      done;
      !ok)

(* --- Containment: quarantine, seizure, rotation, sigcache epochs -------- *)

let adv_rng () = Scion_util.Rng.of_label 42L "fault.adv"

let test_sigcache_epoch_flush () =
  let cache = Sigcache.create () in
  let priv, pub = Scion_crypto.Schnorr.derive ~seed:"epoch" in
  let signature = Scion_crypto.Schnorr.sign priv "msg" in
  Alcotest.(check bool) "verifies" true (Sigcache.verify cache pub ~msg:"msg" ~signature);
  let m0 = Sigcache.misses cache in
  ignore (Sigcache.verify cache pub ~msg:"msg" ~signature);
  Alcotest.(check int) "second verify answered from cache" m0 (Sigcache.misses cache);
  (* Rotating the key epoch drops every cached verdict: the same triple
     must be re-proved under the new trust material. *)
  Sigcache.set_epoch cache "1:2";
  ignore (Sigcache.verify cache pub ~msg:"msg" ~signature);
  Alcotest.(check int) "epoch change drops entries" (m0 + 1) (Sigcache.misses cache);
  let m1 = Sigcache.misses cache in
  Sigcache.set_epoch cache "1:2";
  ignore (Sigcache.verify cache pub ~msg:"msg" ~signature);
  Alcotest.(check int) "re-setting the same epoch is a no-op" m1 (Sigcache.misses cache)

(* One lookup per item, in order, as Pcb.verify looks up a PCB's entry
   signatures. *)
let verify_each cache items =
  List.map (fun (pub, msg, signature) -> Sigcache.verify cache pub ~msg ~signature) items

(* The cache answers only for the exact (key, message, signature) bytes
   it proved: a message that differs by one byte, or is one byte longer or
   shorter, is a miss and gets Schnorr's own verdict. *)
let test_sigcache_exact () =
  let cache = Sigcache.create () in
  let priv, pub = Scion_crypto.Schnorr.derive ~seed:"exact" in
  let msg = String.init 300 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let signature = Scion_crypto.Schnorr.sign priv msg in
  Alcotest.(check bool) "genuine verifies" true (Sigcache.verify cache pub ~msg ~signature);
  let flipped = String.mapi (fun i c -> if i = 150 then Char.chr (Char.code c lxor 1) else c) msg in
  List.iter
    (fun (what, forged) ->
      let m0 = Sigcache.misses cache in
      Alcotest.(check bool)
        (what ^ ": Schnorr rejects")
        false
        (Scion_crypto.Schnorr.verify pub ~msg:forged ~signature);
      Alcotest.(check bool) (what ^ ": cache rejects") false
        (Sigcache.verify cache pub ~msg:forged ~signature);
      Alcotest.(check int) (what ^ ": is a miss") (m0 + 1) (Sigcache.misses cache))
    [ ("one byte flipped", flipped); ("one byte longer", msg ^ "\x00");
      ("one byte shorter", String.sub msg 0 299) ];
  let h0 = Sigcache.hits cache in
  Alcotest.(check bool) "genuine still a hit" true (Sigcache.verify cache pub ~msg ~signature);
  Alcotest.(check int) "hit counted" (h0 + 1) (Sigcache.hits cache);
  (* A PCB's lookups with a duplicated genuine item and one forged item get
     exact per-item verdicts: the duplicate is a hit, the forgery a miss. *)
  let fresh = Sigcache.create () in
  let other = "another message" in
  let other_sig = Scion_crypto.Schnorr.sign priv other in
  let batch = [ (pub, other, other_sig); (pub, flipped, signature); (pub, other, other_sig) ] in
  Alcotest.(check (list bool)) "batch verdicts exact" [ true; false; true ]
    (verify_each fresh batch);
  Alcotest.(check (pair int int)) "two misses, one in-batch hit" (2, 1)
    (Sigcache.misses fresh, Sigcache.hits fresh);
  Alcotest.(check (list bool)) "re-received batch: same verdicts" [ true; false; true ]
    (verify_each fresh batch);
  Alcotest.(check (pair int int)) "all hits" (2, 4) (Sigcache.misses fresh, Sigcache.hits fresh);
  (* An epoch change still drops a cached verdict. *)
  Sigcache.set_epoch fresh "7:1";
  Alcotest.(check bool) "re-proved after epoch change" true
    (Sigcache.verify fresh pub ~msg:other ~signature:other_sig);
  Alcotest.(check int) "epoch change drops the verdict" 3 (Sigcache.misses fresh)

let test_quarantine_contains_corruption () =
  let config = { Mesh.default_config with Mesh.quarantine = Some Mesh.default_quarantine } in
  let m = build_mesh ~config () in
  let rng = adv_rng () in
  let accepted = ref 0 in
  for _ = 1 to 4 do
    accepted := !accepted + Mesh.inject_corrupt_beacons m ~compromised:c1 ~rng ~now ~count:6
  done;
  Alcotest.(check int) "nothing accepted under verification" 0 !accepted;
  Alcotest.(check bool) "quarantine engaged after repeated strikes" true
    (Mesh.quarantine_events m > 0);
  Alcotest.(check bool) "later beacons dropped unprocessed" true (Mesh.quarantine_drops m > 0)

let test_seize_rotate_epoch () =
  let m = build_mesh () in
  let rng = adv_rng () in
  Alcotest.(check int) "forged beacons rejected pre-seizure" 0
    (Mesh.inject_corrupt_beacons m ~compromised:c1 ~rng ~now ~count:4);
  Mesh.seize_as m ~ia:c1 ~now;
  (* A second later than convergence so the attacker's beacons beat the
     stores' same-fingerprint entries on timestamp. *)
  let accepted = Mesh.inject_corrupt_beacons m ~compromised:c1 ~rng ~now:(now +. 1.0) ~count:4 in
  Alcotest.(check bool) "attacker-signed beacons accepted mid-compromise" true (accepted > 0);
  (* The mid-run rotation drill: new root, re-issued certs, new key epoch —
     cached verdicts for the attacker's certificate die with the flush. *)
  Mesh.rotate_trc m ~isd:1 ~now;
  Alcotest.(check int) "one rotation recorded" 1 (Mesh.rotations m);
  Alcotest.(check int) "forged beacons rejected post-rotation" 0
    (Mesh.inject_corrupt_beacons m ~compromised:c1 ~rng ~now ~count:4);
  (* And the honest control plane still converges under the new root. *)
  Mesh.run_beaconing m ~now;
  Alcotest.(check bool) "honest paths survive rotation" true (Mesh.paths m ~src:e ~dst:f <> [])


(* --- Per-sender proofs and verdict-cache generations --------------------- *)

let signed_items priv pub n =
  List.init n (fun i ->
      let msg = Printf.sprintf "prove %d" i in
      (pub, msg, Scion_crypto.Schnorr.sign priv msg))

let counts cache = (Sigcache.misses cache, Sigcache.hits cache)

let test_prove_counts_as_miss () =
  let cache = Sigcache.create () in
  let priv, pub = Scion_crypto.Schnorr.derive ~seed:"prove" in
  let items = signed_items priv pub 5 in
  Sigcache.prove cache items;
  Alcotest.(check (pair int int)) "prove counts nothing" (0, 0) (counts cache);
  let pub0, msg0, sig0 = List.hd items in
  Alcotest.(check bool) "proved entry verifies" true
    (Sigcache.verify cache pub0 ~msg:msg0 ~signature:sig0);
  Alcotest.(check (pair int int)) "first lookup is one miss" (1, 0) (counts cache);
  Alcotest.(check bool) "second lookup" true (Sigcache.verify cache pub0 ~msg:msg0 ~signature:sig0);
  Alcotest.(check (pair int int)) "second lookup is a hit" (1, 1) (counts cache);
  (* All five looked up in order: four misses, one hit. *)
  Alcotest.(check (list bool)) "batch of proved entries" [ true; true; true; true; true ]
    (verify_each cache items);
  Alcotest.(check (pair int int)) "batch: four misses, one hit" (5, 2) (counts cache)

let test_prove_cached_is_noop () =
  let cache = Sigcache.create () in
  let priv, pub = Scion_crypto.Schnorr.derive ~seed:"prove-cached" in
  let items = signed_items priv pub 3 in
  let forged =
    let p, m, s = List.nth items 2 in
    (p, m ^ "!", s)
  in
  List.iter (fun (p, m, s) -> ignore (Sigcache.verify cache p ~msg:m ~signature:s)) (forged :: items);
  Alcotest.(check (pair int int)) "four misses" (4, 0) (counts cache);
  Sigcache.prove cache (forged :: items);
  Alcotest.(check (pair int int)) "prove counts nothing" (4, 0) (counts cache);
  Alcotest.(check (list bool)) "cached verdicts unchanged" [ false; true; true; true ]
    (verify_each cache (forged :: items));
  Alcotest.(check (pair int int)) "all hits" (4, 4) (counts cache)

let test_prove_forged_records_nothing () =
  let cache = Sigcache.create () in
  let priv, pub = Scion_crypto.Schnorr.derive ~seed:"prove-forged" in
  let items = signed_items priv pub 4 in
  let forged =
    List.mapi
      (fun i (p, m, s) ->
        if i = 2 then (p, m, String.mapi (fun j c -> if j = 40 then Char.chr (Char.code c lxor 1) else c) s)
        else (p, m, s))
      items
  in
  Sigcache.prove cache forged;
  Alcotest.(check (pair int int)) "prove counts nothing" (0, 0) (counts cache);
  Alcotest.(check (list bool)) "exact per-item verdicts" [ true; true; false; true ]
    (verify_each cache forged);
  Alcotest.(check (pair int int)) "every item a miss" (4, 0) (counts cache);
  Alcotest.(check (list bool)) "re-read: same verdicts" [ true; true; false; true ]
    (verify_each cache forged);
  Alcotest.(check (pair int int)) "then all hits" (4, 4) (counts cache)

let test_generations_drop_unread () =
  let cache = Sigcache.create () in
  let priv, pub = Scion_crypto.Schnorr.derive ~seed:"generations" in
  let verify (p, m, s) = ignore (Sigcache.verify cache p ~msg:m ~signature:s) in
  match signed_items priv pub 3 with
  | [ kept; dropped; proved ] ->
      verify kept;
      verify dropped;
      Sigcache.prove cache [ proved ];
      Sigcache.next_generation cache;
      verify kept;
      Alcotest.(check (pair int int)) "read in the next generation: a hit" (2, 1) (counts cache);
      Sigcache.next_generation cache;
      verify kept;
      Alcotest.(check (pair int int)) "read since the previous call: kept" (2, 2) (counts cache);
      verify dropped;
      Alcotest.(check (pair int int)) "unread for a generation: dropped" (3, 2) (counts cache);
      verify proved;
      Alcotest.(check (pair int int)) "proved, unread: dropped, a miss" (4, 2) (counts cache)
  | _ -> Alcotest.fail "three items"

let test_jittered_quarantine_rejected () =
  let q_backoff = { Mesh.default_quarantine.Mesh.q_backoff with Scion_util.Backoff.jitter = 0.1 } in
  let config =
    { Mesh.default_config with
      Mesh.quarantine = Some { Mesh.default_quarantine with Mesh.q_backoff } }
  in
  match build_mesh ~config () with
  | _ -> Alcotest.fail "a jittered quarantine backoff was accepted"
  | exception Invalid_argument _ -> ()

(* A seized core signs its beacons with its true key while its certificate
   carries the attacker's, so every beacon it originates fails
   verification, strikes and, repeated, is quarantined. Two re-beaconings
   later every counter equals the one recorded before beacon deliveries
   were deferred and batch-proved per sender. The mesh's own cache starts
   empty, so the tally's deltas are this mesh's counts alone. *)
let test_seized_rebeacon_counts () =
  let config =
    { Mesh.default_config with Mesh.seed = 31_337L; quarantine = Some Mesh.default_quarantine }
  in
  let h0 = Sigcache.hits Sigcache.global and m0 = Sigcache.misses Sigcache.global in
  let m = build_mesh ~config () in
  Mesh.seize_as m ~ia:c1 ~now;
  Mesh.run_beaconing m ~now:(now +. 1.0);
  Mesh.run_beaconing m ~now:(now +. 2.0);
  Alcotest.(check (list int)) "failures, quarantine events, drops, sigcache hits, misses"
    [ 10; 2; 2; 158; 61 ]
    [
      Mesh.verification_failures m;
      Mesh.quarantine_events m;
      Mesh.quarantine_drops m;
      Sigcache.hits Sigcache.global - h0;
      Sigcache.misses Sigcache.global - m0;
    ]

(* Two same-seed verifying meshes built one after the other verify the
   same signatures. Each owns its cache, so the second is not answered by
   the first one's verdicts: both publish the same [mesh.sigcache] gauges
   and add the same counts to the process-wide tally, and the gauges are
   those counts. *)
let test_meshes_share_no_verdicts () =
  let build () =
    let registry = Telemetry.Metrics.create () in
    let h0 = Sigcache.hits Sigcache.global and m0 = Sigcache.misses Sigcache.global in
    ignore (build_mesh ~metrics:registry ());
    let gauge result =
      List.find_map
        (fun (s : Telemetry.Metrics.sample) ->
          match s.Telemetry.Metrics.value with
          | Telemetry.Metrics.Gauge v
            when String.equal s.sample_name "mesh.sigcache"
                 && s.sample_labels = [ ("result", result) ] ->
              Some (int_of_float v)
          | _ -> None)
        (Telemetry.Metrics.snapshot registry)
      |> Option.value ~default:(-1)
    in
    ( (gauge "hit", gauge "miss"),
      (Sigcache.hits Sigcache.global - h0, Sigcache.misses Sigcache.global - m0) )
  in
  let first_gauges, first_tally = build () in
  let second_gauges, second_tally = build () in
  Alcotest.(check bool) "the first mesh verifies" true (snd first_tally > 0);
  Alcotest.(check (pair int int)) "gauges are the tally's counts" first_tally first_gauges;
  Alcotest.(check (pair int int)) "same gauges" first_gauges second_gauges;
  Alcotest.(check (pair int int)) "same tally deltas" first_tally second_tally

(* --- Certificate-chain verdicts in the sigcache -------------------------- *)

module Verify = Scion_cppki.Verify
module Schnorr = Scion_crypto.Schnorr
module SS = Set.Make (String)

(* Every registered segment of a verifying mesh: up and core. An honest
   mesh registers each up segment, unchanged, as its AS's down segment. *)
let registered_segments m =
  List.concat_map
    (fun x -> Mesh.up_segments m x @ Mesh.core_segments_at m x)
    (Mesh.ases m)

let material m ia =
  match Mesh.cert_material m ia with
  | Some mat -> mat
  | None -> Alcotest.fail ("no certificate material for " ^ Ia.to_string ia)

let verify_all cache m segs =
  List.iter
    (fun pcb ->
      match Pcb.verify pcb ~cache ~lookup:(Mesh.cert_material m) ~now with
      | Ok () -> ()
      | Error err -> Alcotest.fail ("genuine segment rejected: " ^ Pcb.check_error_to_string err))
    segs

let test_warm_path_zero_misses () =
  let m = build_mesh ~config:{ Mesh.default_config with Mesh.verify_pcbs = true } () in
  let segs = registered_segments m in
  Alcotest.(check bool) "segments registered" true (List.length segs > 10);
  (* The distinct signature checks a cold pass must make: one per distinct
     entry signature, plus the AS and CA certificate signatures of every
     chain those entries name. *)
  let entry_sigs = ref SS.empty and cert_sigs = ref SS.empty in
  List.iter
    (fun pcb ->
      List.iteri
        (fun i (en : Pcb.as_entry) ->
          let as_cert, ca_cert, _ = material m en.Pcb.ia in
          let entry_key = Ia.to_string en.Pcb.ia ^ en.Pcb.signature ^ Ref_pcb.signed_bytes_upto pcb i in
          entry_sigs := SS.add entry_key !entry_sigs;
          List.iter
            (fun (c : Cert.t) ->
              cert_sigs := SS.add (c.Cert.signature ^ Cert.signed_bytes c) !cert_sigs)
            [ as_cert; ca_cert ])
        pcb.Pcb.entries)
    segs;
  let cache = Sigcache.create () in
  verify_all cache m segs;
  Alcotest.(check int) "cold pass: one miss per distinct entry and certificate signature"
    (SS.cardinal !entry_sigs + SS.cardinal !cert_sigs)
    (Sigcache.misses cache);
  let cold = Sigcache.misses cache in
  verify_all cache m segs;
  (* Sigcache only reaches Schnorr on a miss: zero new misses is zero
     signature verifications on the warm pass. *)
  Alcotest.(check int) "warm pass adds no misses" cold (Sigcache.misses cache)

let other_profile = function
  | Cert.Open_source -> Cert.Proprietary
  | Cert.Proprietary -> Cert.Open_source

let resign (c : Cert.t) ~priv =
  Cert.sign ~kind:c.Cert.kind ~profile:c.Cert.profile ~serial:c.Cert.serial ~subject:c.Cert.subject
    ~pubkey:c.Cert.pubkey
    ~validity:(c.Cert.not_before, c.Cert.not_after)
    ~issuer:c.Cert.issuer ~issuer_key_name:c.Cert.issuer_key_name ~issuer_priv:priv

(* Flips the top bit of the first byte. *)
let flip_byte s = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 0x80) else c) s

let flip_sig (c : Cert.t) = { c with Cert.signature = flip_byte c.Cert.signature }

let mallory, _ = Schnorr.derive ~seed:"mallory"

(* A cache warmed on genuine material must not accept anything a cold
   check rejects. *)
let test_warm_cache_never_widens_acceptance () =
  let m = Lazy.force mesh in
  let cache = Sigcache.create () in
  verify_all cache m (registered_segments m);
  let as_cert, ca_cert, trc = material m e in
  let warm = Sigcache.verify cache in
  let chain ?(ca_cert = ca_cert) ?(as_cert = as_cert) ~now verify =
    Verify.chain ~verify ~trc ~ca_cert ~as_cert ~now
  in
  let m0 = Sigcache.misses cache in
  Alcotest.(check bool) "warm chain verifies" true (Result.is_ok (chain ~now warm));
  Alcotest.(check int) "warm chain is all hits" m0 (Sigcache.misses cache);
  Sigcache.set_epoch cache "chain-test";
  Alcotest.(check bool) "chain verifies after epoch change" true (Result.is_ok (chain ~now warm));
  Alcotest.(check int) "epoch change: both certificate signatures miss again" (m0 + 2)
    (Sigcache.misses cache);
  let late = as_cert.Cert.not_after +. 1.0 in
  (match chain ~now:late warm with
  | Error (Verify.As_cert_invalid "outside validity window") -> ()
  | Ok () -> Alcotest.fail "expired AS certificate accepted from a warm cache"
  | Error err -> Alcotest.fail ("wrong error: " ^ Verify.error_to_string err));
  (match
     Mesh.up_segments m e
     |> List.map (fun pcb -> Pcb.verify pcb ~cache ~lookup:(Mesh.cert_material m) ~now:late)
   with
  | [] -> Alcotest.fail "no up segments"
  | results ->
      List.iter
        (function
          | Error (Pcb.Bad_signature (_, "AS certificate invalid: outside validity window")) -> ()
          | Ok () -> Alcotest.fail "segment with expired certificates accepted"
          | Error err -> Alcotest.fail ("wrong error: " ^ Pcb.check_error_to_string err))
        results);
  (match chain ~ca_cert:(flip_sig ca_cert) ~now warm with
  | Error (Verify.Ca_cert_invalid _) -> ()
  | Ok () -> Alcotest.fail "CA certificate with a flipped signature byte accepted"
  | Error err -> Alcotest.fail ("wrong error: " ^ Verify.error_to_string err));
  match chain ~as_cert:(resign as_cert ~priv:mallory) ~now warm with
  | Error (Verify.As_cert_invalid _) -> ()
  | Ok () -> Alcotest.fail "AS certificate signed by the wrong key accepted"
  | Error err -> Alcotest.fail ("wrong error: " ^ Verify.error_to_string err)

(* The reference: every signature re-verified with plain Schnorr. *)
let cold_verify pcb ~lookup ~now =
  let rec go i = function
    | [] -> Ok ()
    | (e : Pcb.as_entry) :: rest -> (
        match lookup e.Pcb.ia with
        | None -> Error "unknown AS"
        | Some (as_cert, ca_cert, trc) -> (
            match Verify.chain ~verify:Schnorr.verify ~trc ~ca_cert ~as_cert ~now with
            | Error err -> Error (Verify.error_to_string err)
            | Ok () ->
                if
                  Schnorr.verify as_cert.Cert.pubkey ~msg:(Ref_pcb.signed_bytes_upto pcb i)
                    ~signature:e.Pcb.signature
                then go (i + 1) rest
                else Error "entry signature"))
  in
  go 0 pcb.Pcb.entries

let qcheck_warm_matches_cold =
  let m = Lazy.force mesh in
  let segs = Array.of_list (registered_segments m) in
  (* One cache shared by every case, warmed on genuine material, so each
     case also runs against verdicts left behind by earlier tampering. *)
  let cache = Sigcache.create () in
  verify_all cache m (Array.to_list segs);
  let gen = QCheck.Gen.(triple (0 -- (Array.length segs - 1)) (0 -- 9) (0 -- 15)) in
  QCheck.Test.make ~name:"warm Pcb.verify agrees with a cold Schnorr check" ~count:200
    (QCheck.make gen) (fun (si, kind, pick) ->
      let pcb = segs.(si) in
      let victim = (List.nth pcb.Pcb.entries (pick mod List.length pcb.Pcb.entries)).Pcb.ia in
      let as_cert, _, _ = material m victim in
      (* Tamper with the victim's chain, one of its PCB entries, or the clock. *)
      let genuine = Mesh.cert_material m in
      let chain f =
        let lookup ia = Option.map (fun mat -> if Ia.equal ia victim then f mat else mat) (genuine ia) in
        (lookup, pcb, now)
      in
      let entry f =
        let entries =
          List.map
            (fun (en : Pcb.as_entry) -> if Ia.equal en.Pcb.ia victim then f en else en)
            pcb.Pcb.entries
        in
        (genuine, { pcb with Pcb.entries }, now)
      in
      let lookup, pcb, now =
        match kind with
        | 0 -> (genuine, pcb, now)
        | 1 -> chain (fun (a, c, t) -> (a, flip_sig c, t))
        | 2 -> chain (fun (a, c, t) -> (flip_sig a, c, t))
        | 3 -> chain (fun (a, c, t) -> (resign a ~priv:mallory, c, t))
        | 4 -> chain (fun (a, c, t) -> ({ a with Cert.not_after = a.Cert.not_after +. 1.0 }, c, t))
        | 5 -> chain (fun (a, c, t) -> ({ a with Cert.profile = other_profile a.Cert.profile }, c, t))
        | 6 -> chain (fun (a, c, t) -> (a, { c with Cert.kind = Cert.As_signing }, t))
        | 7 -> (genuine, pcb, as_cert.Cert.not_after +. 1.0)
        | 8 -> entry (fun en -> { en with Pcb.signature = flip_byte en.Pcb.signature })
        | _ -> entry (fun en -> { en with Pcb.mtu = en.Pcb.mtu + 1 })
      in
      let warm = Pcb.verify pcb ~cache ~lookup ~now in
      let cold = Pcb.verify pcb ~cache:(Sigcache.create ()) ~lookup ~now in
      let reference = cold_verify pcb ~lookup ~now in
      Result.is_ok warm = Result.is_ok reference
      && (kind = 0) = Result.is_ok warm
      &&
      match (warm, cold) with
      | Ok (), Ok () -> true
      | Error a, Error b -> String.equal (Pcb.check_error_to_string a) (Pcb.check_error_to_string b)
      | Ok (), Error _ | Error _, Ok () -> false)

(* --- Walks on the wire: header template vs structured packet ----------- *)

module Packet = Scion_dataplane.Packet
module Path = Scion_dataplane.Path

let walk_host_src = Packet.Ipv4 (Scion_addr.Ipv4.of_string "10.0.0.1")
let walk_host_dst = Packet.Ipv4 (Scion_addr.Ipv4.of_string "10.0.0.2")

(* The packet [Mesh.walk] is specified to send, built field by field. *)
let structured_packet ~proto ~payload (fp : Combinator.fullpath) =
  Packet.make ~proto
    ~src:(fp.Combinator.src, walk_host_src)
    ~dst:(fp.Combinator.dst, walk_host_dst)
    ~path:(Packet.Standard (Combinator.fresh_raw fp))
    payload

let structured_walk m ~now ~proto ~payload (fp : Combinator.fullpath) =
  Mesh.walk_packet m ~now ~from:fp.Combinator.src
    ~max_steps:(3 * Combinator.num_hops fp)
    (structured_packet ~proto ~payload fp)

(* Deep copies, so a later write into the original shows up as a diff. *)
let copy_segments (fp : Combinator.fullpath) =
  List.map
    (fun ((i : Path.info), hops) -> ({ i with Path.seg_id = i.Path.seg_id }, hops))
    fp.Combinator.segments

let copy_wire (fp : Combinator.fullpath) = Bytes.to_string (Bytes.of_string fp.Combinator.wire)

let describe = function
  | Mesh.Walk_delivered { dst; hops; _ } ->
      Printf.sprintf "delivered at %s after %d" (Ia.to_string dst) hops
  | Mesh.Walk_dropped { at; reason } ->
      Printf.sprintf "dropped at %s: %s" (Ia.to_string at) (Router.drop_reason_to_string reason)

let same_result a b =
  match (a, b) with
  | Mesh.Walk_delivered x, Mesh.Walk_delivered y ->
      Ia.equal x.dst y.dst && x.hops = y.hops && x.packet = y.packet
  | Mesh.Walk_dropped x, Mesh.Walk_dropped y -> Ia.equal x.at y.at && x.reason = y.reason
  | Mesh.Walk_delivered _, Mesh.Walk_dropped _ | Mesh.Walk_dropped _, Mesh.Walk_delivered _ -> false

(* The fullpath with the last MAC of its first segment flipped, as a new
   path (no template yet). *)
let tamper_mac (fp : Combinator.fullpath) =
  let flip (h : Path.hop) =
    let flip_first i c = if i = 0 then Char.chr (Char.code c lxor 0xFF) else c in
    { h with Path.mac = String.mapi flip_first h.Path.mac }
  in
  let segments =
    match fp.Combinator.segments with
    | (info, hops) :: rest ->
        let last = List.length hops - 1 in
        (info, List.mapi (fun i h -> if i = last then flip h else h) hops) :: rest
    | [] -> []
  in
  { fp with Combinator.segments; wire = "" }

let sciera_pairs m =
  let ases = Mesh.ases m in
  List.concat_map
    (fun src ->
      List.filter_map (fun dst -> if Ia.equal src dst then None else Some (src, dst)) ases)
    ases

(* Every memoised path of every SCIERA pair, under every payload and
   protocol: the template walk, the structured walk and [path_alive] must
   agree, and a second template walk must repeat the first. Returns the
   number of delivered template walks. *)
let check_walks m ~now ~label fps =
  let delivered = ref 0 in
  List.iter
    (fun (fp : Combinator.fullpath) ->
      List.iter
        (fun payload ->
          List.iter
            (fun proto ->
              let w = Mesh.walk m ~now ~payload ~proto fp in
              let again = Mesh.walk m ~now ~payload ~proto fp in
              let s = structured_walk m ~now ~proto ~payload fp in
              if not (same_result w s) then
                Alcotest.failf "%s %s -> %s, %d B: template %s, structured %s" label
                  (Ia.to_string fp.Combinator.src) (Ia.to_string fp.Combinator.dst)
                  (String.length payload) (describe w) (describe s);
              if not (same_result w again) then
                Alcotest.failf "%s: a second walk of the same path differs (%s vs %s)" label
                  (describe w) (describe again);
              match w with Mesh.Walk_delivered _ -> incr delivered | Mesh.Walk_dropped _ -> ())
            [ Packet.Udp; Packet.Scmp ])
        [ ""; "x"; String.make 1200 'p' ];
      let walked =
        match Mesh.walk m ~now fp with
        | Mesh.Walk_delivered { dst; _ } -> Ia.equal dst fp.Combinator.dst
        | Mesh.Walk_dropped _ -> false
      in
      Alcotest.(check bool) (label ^ ": path_alive = walk") walked (Mesh.path_alive m ~now fp))
    fps;
  !delivered

let test_template_walk_matches_structured () =
  let net = Sciera.Network.create ~per_origin:8 ~verify_pcbs:false () in
  let m = Sciera.Network.mesh net in
  let now = Sciera.Network.now_unix net in
  let pairs = sciera_pairs m in
  let all_paths () = List.concat_map (fun (src, dst) -> Mesh.paths m ~src ~dst) pairs in
  let fps = all_paths () in
  Alcotest.(check bool) "every path starts without a template" true
    (List.for_all (fun (fp : Combinator.fullpath) -> fp.Combinator.wire = "") fps);
  let n = List.length fps in
  Alcotest.(check int) "every template walk delivers" (6 * n)
    (check_walks m ~now ~label:"live" fps);
  Alcotest.(check bool) "every walked path has a template" true
    (List.for_all (fun (fp : Combinator.fullpath) -> fp.Combinator.wire <> "") fps);
  (* Expired hop fields: dropped at the first hop, the same way. *)
  Alcotest.(check int) "nothing delivers two days later" 0
    (check_walks m ~now:(now +. (2.0 *. 86400.0)) ~label:"expired" fps);
  (* A tampered MAC: the template is encoded from the tampered segments. *)
  let firsts =
    List.filter_map
      (fun (src, dst) -> match Mesh.paths m ~src ~dst with fp :: _ -> Some fp | [] -> None)
      pairs
  in
  Alcotest.(check int) "no tampered path delivers" 0
    (check_walks m ~now ~label:"tampered" (List.map tamper_mac firsts));
  (* A downed link: paths over it drop at its interface, the rest deliver. *)
  let link = fst (List.hd (Mesh.links m)) in
  Mesh.set_link_state m link ~up:false;
  let survivors = check_walks m ~now ~label:"link down" fps in
  Mesh.set_link_state m link ~up:true;
  Alcotest.(check bool) "the downed link cuts some paths but not all" true
    (survivors > 0 && survivors < 6 * n);
  (* A new day re-beacons: fresh fullpaths, fresh (empty) templates. *)
  Sciera.Network.set_day net 1.0;
  let fresh = all_paths () in
  Alcotest.(check bool) "after set_day every path starts without a template" true
    (fresh <> [] && List.for_all (fun (fp : Combinator.fullpath) -> fp.Combinator.wire = "") fresh)

(* A reference-router walk of [pkt]: the structured engine forwards the
   decoded path, writing [seg_id] into its info fields as it goes. *)
let ref_walk m ~now ~from pkt =
  let seed = Int64.to_string (Mesh.config m).Mesh.seed in
  let rec step at ingress n =
    if n > 64 then Alcotest.fail "reference walk loops"
    else
      let r = Mesh.router m at in
      let oracle =
        Ref_router.create ~ia:at ~key:(Scion_dataplane.Fwkey.of_seed ~ia:at ~seed)
          ~ifaces:(Router.interfaces r)
      in
      match Ref_router.process oracle ~now ~ingress pkt with
      | Ref_router.Deliver p -> Some p
      | Ref_router.Drop _ -> None
      | Ref_router.Forward { egress; _ } -> (
          match Router.interface r egress with
          | Some nb -> step nb.Router.remote_ia nb.Router.remote_ifid (n + 1)
          | None -> None)
  in
  step from 0 0

let test_fresh_raw_shares_nothing () =
  let m = build_mesh () in
  List.iter
    (fun ps ->
      Alcotest.(check bool) "paths to walk" true (List.length ps >= 2);
      (* One lookup's paths share the segment data of the pieces they have
         in common, so a walk that wrote into its path's segments would
         show up in a sibling. *)
      let segs (fp : Combinator.fullpath) = List.map fst fp.Combinator.segments in
      let share p q = p != q && List.exists (fun s -> List.memq s (segs q)) (segs p) in
      Alcotest.(check bool) "siblings share segment data" true
        (List.exists (fun p -> List.exists (share p) ps) ps);
      let before = Array.of_list (List.map (fun fp -> (copy_segments fp, copy_wire fp)) ps) in
      List.iteri
        (fun i (fp : Combinator.fullpath) ->
          (* Half the paths get their template before the reference walk,
             half after it. *)
          if i mod 2 = 0 then ignore (Mesh.walk m ~now fp);
          let segments = copy_segments fp and wire = copy_wire fp in
          let pkt = structured_packet ~proto:Packet.Udp ~payload:"ref" fp in
          let delivered =
            match ref_walk m ~now ~from:fp.Combinator.src pkt with
            | Some p -> p
            | None -> Alcotest.fail "reference walk dropped"
          in
          Alcotest.(check bool) "segments unchanged" true (segments = fp.Combinator.segments);
          Alcotest.(check string) "template unchanged" wire fp.Combinator.wire;
          (match Mesh.walk m ~now ~payload:"ref" fp with
          | Mesh.Walk_delivered { dst; packet; _ } ->
              Alcotest.(check bool) "walk delivers" true (Ia.equal dst fp.Combinator.dst);
              Alcotest.(check string) "same bytes as the reference router"
                (Packet.encode delivered) (Packet.encode packet)
          | Mesh.Walk_dropped _ as w ->
              Alcotest.failf "walk after the reference walk: %s" (describe w));
          (* Only this path's own template may have been filled. *)
          before.(i) <- (segments, fp.Combinator.wire);
          List.iteri
            (fun j (sib : Combinator.fullpath) ->
              if j <> i then begin
                let segments, wire = before.(j) in
                Alcotest.(check bool) "sibling segments unchanged" true
                  (segments = sib.Combinator.segments);
                Alcotest.(check string) "sibling template unchanged" wire sib.Combinator.wire
              end)
            ps)
        ps)
    [ paths m e f; paths m g e ]

(* --- The combinator against its reference ----------------------------- *)

(* The segments [Mesh.paths] hands the combinator for one pair. After
   beaconing with no rogue registration, a leaf's down segments are its up
   segments in the same order; [check_combinator] confirms that by
   comparing with what [Mesh.paths] serves. *)
let build_both m ~src ~dst =
  let src_core = Mesh.is_core m src and dst_core = Mesh.is_core m dst in
  let ups = if src_core then [] else Mesh.up_segments m src in
  let downs = if dst_core then [] else Mesh.up_segments m dst in
  let core_sources =
    if src_core then [ src ] else List.sort_uniq Ia.compare (List.map Pcb.origin ups)
  in
  let cores = List.concat_map (Mesh.core_segments_at m) core_sources in
  ( Combinator.build ~ups ~cores ~downs ~src ~dst ~src_core ~dst_core,
    Ref_combinator.build ~ups ~cores ~downs ~src ~dst ~src_core ~dst_core,
    Ref_combinator.assembled ~ups ~cores ~downs ~src ~dst ~src_core ~dst_core )

(* Candidates whose trace equals an earlier one's while their segments
   differ: where keeping the first or the last duplicate shows. *)
let differing_duplicates (assembled : Combinator.fullpath list) =
  let by_fp =
    List.stable_sort
      (fun (a : Combinator.fullpath) b ->
        String.compare a.Combinator.fingerprint b.Combinator.fingerprint)
      assembled
  in
  let rec count n = function
    | (a : Combinator.fullpath) :: (b :: _ as rest) ->
        let differ =
          a.Combinator.fingerprint = b.Combinator.fingerprint
          && a.Combinator.segments <> b.Combinator.segments
        in
        count (if differ then n + 1 else n) rest
    | [ _ ] | [] -> n
  in
  count 0 by_fp

(* Every ordered pair: [Combinator.build] returns the reference's list, in
   its order, with every field equal, and [Mesh.paths] serves that list.
   Returns the number of differing duplicates met. *)
let check_combinator ~label m =
  List.fold_left
    (fun dups (src, dst) ->
      let got, want, assembled = build_both m ~src ~dst in
      let pair = Printf.sprintf "%s: %s -> %s" label (Ia.to_string src) (Ia.to_string dst) in
      if got <> want then
        Alcotest.failf "%s: build differs from the reference (%d vs %d paths)" pair
          (List.length got) (List.length want);
      let fingerprints = List.map (fun (p : Combinator.fullpath) -> p.Combinator.fingerprint) in
      if fingerprints (Mesh.paths m ~src ~dst) <> fingerprints got then
        Alcotest.failf "%s: Mesh.paths serves another list" pair;
      dups + differing_duplicates assembled)
    0 (sciera_pairs m)

let topogen_network n_ases =
  let gen = Topogen.generate ~seed:0xC0B1L (Topogen.default ~n_ases) in
  Sciera.Network.create ~topology:(Sciera.Topology.of_topogen gen) ~per_origin:4 ~propagate_k:4
    ~rounds:(Topogen.max_depth gen + 2) ()

let test_build_matches_reference () =
  let meshes =
    [
      ("sciera", Sciera.Network.create ~per_origin:8 ());
      ("topogen-20", topogen_network 20);
      ("topogen-40", topogen_network 40);
    ]
  in
  List.iter
    (fun (label, net) ->
      let dups = check_combinator ~label (Sciera.Network.mesh net) in
      Printf.printf "%s: %d differing duplicates\n" label dups;
      Alcotest.(check bool) (label ^ ": some duplicate trace has other segments") true (dups > 0))
    meshes

let () =
  Alcotest.run "scion_controlplane"
    [
      ( "mesh",
        [
          Alcotest.test_case "beaconing produces segments" `Quick test_beaconing_produces_segments;
          Alcotest.test_case "paths exist, sorted" `Quick test_paths_exist_and_are_sorted;
          Alcotest.test_case "all paths data-plane valid" `Quick test_all_paths_data_plane_valid;
          Alcotest.test_case "fingerprints unique" `Quick test_fingerprints_unique;
          Alcotest.test_case "peering path" `Quick test_peering_path_exists;
          Alcotest.test_case "shortcut path" `Quick test_shortcut_path_exists;
          Alcotest.test_case "on-path destination" `Quick test_onpath_destination;
          Alcotest.test_case "multihomed diversity" `Quick test_multihomed_leaf_diversity;
          Alcotest.test_case "cross-ISD" `Quick test_cross_isd;
          Alcotest.test_case "reply path" `Quick test_reply_path;
          Alcotest.test_case "tampered mac rejected" `Quick test_tampered_mac_rejected;
          Alcotest.test_case "expired hops rejected" `Quick test_expired_hops_rejected;
          Alcotest.test_case "link failure prunes" `Quick test_link_failure_prunes_paths;
          Alcotest.test_case "leaf isolation" `Quick test_leaf_isolation;
          Alcotest.test_case "cert renewal" `Quick test_cert_renewal;
          Alcotest.test_case "mixed profiles" `Quick test_mixed_profiles_interoperate;
          Alcotest.test_case "pcb verify tamper" `Quick test_pcb_verify_rejects_tamper;
          Alcotest.test_case "disjointness metric" `Quick test_disjointness_metric;
          Alcotest.test_case "build = reference combinator" `Quick test_build_matches_reference;
        ] );
      ( "wire walk",
        [
          Alcotest.test_case "template walk = structured walk" `Quick
            test_template_walk_matches_structured;
          Alcotest.test_case "fresh_raw shares nothing with the memo" `Quick
            test_fresh_raw_shares_nothing;
        ] );
      ("beacon_store", [ Alcotest.test_case "policy" `Quick test_beacon_store_policy ]);
      ( "containment",
        [
          Alcotest.test_case "sigcache epoch flush" `Quick test_sigcache_epoch_flush;
          Alcotest.test_case "quarantine contains corruption" `Quick
            test_quarantine_contains_corruption;
          Alcotest.test_case "seize, rotate, re-contain" `Quick test_seize_rotate_epoch;
          Alcotest.test_case "sigcache verdicts are exact" `Quick test_sigcache_exact;
          Alcotest.test_case "prove, then one miss" `Quick test_prove_counts_as_miss;
          Alcotest.test_case "prove on cached items" `Quick test_prove_cached_is_noop;
          Alcotest.test_case "forged proof records nothing" `Quick test_prove_forged_records_nothing;
          Alcotest.test_case "generations drop unread" `Quick test_generations_drop_unread;
          Alcotest.test_case "jittered quarantine rejected" `Quick test_jittered_quarantine_rejected;
          Alcotest.test_case "seized mesh re-beacons, same counts" `Quick test_seized_rebeacon_counts;
          Alcotest.test_case "meshes share no verdicts" `Quick test_meshes_share_no_verdicts;
        ] );
      ( "chain cache",
        [
          Alcotest.test_case "warm path adds no misses" `Quick test_warm_path_zero_misses;
          Alcotest.test_case "warm cache never widens acceptance" `Quick
            test_warm_cache_never_widens_acceptance;
          QCheck_alcotest.to_alcotest qcheck_warm_matches_cold;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest qcheck_random_topology_paths_valid ]);
    ]
