(* The containment figure: per adversary class, blast radius (degraded
   pairs, bogus control-plane state accepted, amplification bytes, flood
   frames through) and time-to-containment, with the defence stack on
   versus off, at the 29-AS deployment and a generated Topogen mesh.

   Defences on means: PCB verification + freshness, per-neighbor beacon
   quarantine, the daemon's poisoned-path feedback loop, the SCMP
   emission throttle, a LightningFilter in front of flood targets, and
   the TRC-rotation drill after a CA compromise. Defences off is the
   same network with none of those armed — verification skipped, no
   quarantine, no feedback, unlimited SCMP, no filter, no drill.

   Every adversary draw comes from the dedicated [fault.adv] stream and
   every measurement draw from a private workload stream, so this figure
   coexists with the RNG-isolation contract pinned by the goldens. *)

module Ia = Scion_addr.Ia
module Rng = Scion_util.Rng
module Table = Scion_util.Table
module Mesh = Scion_controlplane.Mesh
module Combinator = Scion_controlplane.Combinator
module Router = Scion_dataplane.Router
module Scmp = Scion_dataplane.Scmp
module Daemon = Scion_endhost.Daemon
module Engine = Netsim.Engine
module Adversary = Fault.Adversary

type attack = Corrupt | Replay | Forge | Rogue | Wormhole | Reflect | Flood | Compromise

(* Classes that leave persistent mesh state (stores, registry, seized
   identities) run last; the compromise drill is final because the
   undefended variant leaves an attacker holding an AS identity. *)
let attacks = [ Forge; Reflect; Flood; Wormhole; Corrupt; Replay; Rogue; Compromise ]

let attack_name = function
  | Corrupt -> "corrupt-beacons"
  | Replay -> "replay-beacons"
  | Forge -> "forge-hop-macs"
  | Rogue -> "rogue-segments"
  | Wormhole -> "wormhole"
  | Reflect -> "scmp-reflect"
  | Flood -> "volumetric-flood"
  | Compromise -> "trc-compromise"

(* --- Timeline (simulated seconds; one engine per class) ---------------- *)

let attack_start = 2.0
let attack_end = 12.0
let horizon = 16.0
let tick_s = 0.5
let burst_s = 1.0
let detect_delay_s = 1.5 (* pathmon flags a wormhole pair after this long *)
let rotate_at_s = 8.0 (* operators run the TRC drill this far in *)
let replay_age_s = 2.0 *. 86400.0 (* two-day-old captures: past hop expiry *)

type cell = {
  c_attack : attack;
  c_scale : string;
  c_defended : bool;
  c_degraded_pct : float;  (** Mean degraded-pair fraction over the window. *)
  c_bogus : int;  (** Bogus beacons accepted / segments served / forged delivered. *)
  c_amp_kb : float;  (** Amplification KiB emitted at reflectors. *)
  c_flood_passed : int;  (** Flood frames that reached the host. *)
  c_contain_s : float;  (** Onset to neutralisation; censored at the horizon. *)
}

type result = {
  cells : cell list;
  scales : string list;
  classes_contained : int;
  quarantine_events : int;
  quarantine_drops : int;
  scmp_suppressed : int;
  poisoned_revocations : int;
  rotations : int;
}

(* The scalar each class calls its blast radius. *)
let blast_scalar c =
  match c.c_attack with
  | Corrupt | Replay | Compromise | Forge -> float_of_int c.c_bogus
  | Rogue | Wormhole -> c.c_degraded_pct
  | Reflect -> c.c_amp_kb
  | Flood -> float_of_int c.c_flood_passed

(* --- Cast: who attacks whom, fixed per mesh ---------------------------- *)

type cast = {
  cores : Ia.t array;
  victim : Ia.t;  (** Rogue-segment victim (a leaf with real down segments). *)
  target : Ia.t;  (** Flood target. *)
  isd : int;  (** The compromised ISD (the drill seizes its first core). *)
}

(* Distinct attacker per class so quarantine windows never leak across
   classes sharing one network. Index 0 is reserved: the TRC drill's
   applier seizes the first core of [isd]. *)
let nth_core cast i = cast.cores.(i mod Array.length cast.cores)

let make_cast mesh =
  let ases = Mesh.ases mesh in
  let cores = Array.of_list (List.filter (fun ia -> Mesh.is_core mesh ia) ases) in
  let noncore = List.filter (fun ia -> not (Mesh.is_core mesh ia)) ases in
  let victim =
    match List.rev noncore with v :: _ -> v | [] -> cores.(Array.length cores - 1)
  in
  let target = match noncore with t :: _ -> t | [] -> cores.(0) in
  { cores; victim; target; isd = cores.(0).Ia.isd }

(* --- Measurement helpers ---------------------------------------------- *)

let schedule_ticks engine f =
  let n = int_of_float (horizon /. tick_s) in
  for i = 0 to n - 1 do
    let t = float_of_int i *. tick_s in
    Engine.schedule_at engine ~time:t (fun () -> f t)
  done

(* Containment from a sampled effect series: the attack counts as
   contained once its effect goes to zero for good; never-effective
   attacks are contained at onset (0 s), never-contained ones are
   censored at the horizon. *)
let contain_of_series series =
  let last =
    List.fold_left (fun acc (t, e) -> if e > 0.0 then Some t else acc) None series
  in
  match last with
  | None -> 0.0
  | Some t -> Float.min (horizon -. attack_start) (t +. tick_s -. attack_start)

let mean_effect series =
  let window = List.filter (fun (t, _) -> t >= attack_start) series in
  match window with
  | [] -> 0.0
  | l -> List.fold_left (fun a (_, e) -> a +. e) 0.0 l /. float_of_int (List.length l)

(* Containment for acceptance-based classes (beacon injection): when
   acceptance stops while the campaign is still firing, the defences won;
   acceptance through the last burst is censored. *)
let contain_of_acceptance (stats : Network.adversary_stats) ~last_burst =
  if stats.Network.adv_accepted = 0 then 0.0
  else if stats.Network.adv_last_accept_s >= last_burst -. 1e-9 then horizon -. attack_start
  else stats.Network.adv_last_accept_s +. burst_s -. attack_start

let sample_observers ~rng net ~victim ~k =
  let cands =
    List.filter
      (fun ia -> (not (Ia.equal ia victim)) && Network.paths net ~src:ia ~dst:victim <> [])
      (Mesh.ases (Network.mesh net))
  in
  let arr = Array.of_list cands in
  if Array.length arr = 0 then []
  else List.sort_uniq compare (List.init (min k (Array.length arr)) (fun _ -> Rng.pick rng arr))

let sample_pairs ~rng net ~k =
  let arr = Array.of_list (Mesh.ases (Network.mesh net)) in
  let rec build acc n guard =
    if n = 0 || guard = 0 then acc
    else
      let src = Rng.pick rng arr and dst = Rng.pick rng arr in
      if Ia.equal src dst || Network.paths net ~src ~dst = [] then build acc n (guard - 1)
      else build ((src, dst) :: acc) (n - 1) (guard - 1)
  in
  build [] k (k * 20)

let best_path net ~src ~dst =
  match Network.paths net ~src ~dst with
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun b p ->
             if Network.scion_rtt_base net p < Network.scion_rtt_base net b then p else b)
           first rest)

(* The colluding pair for the wormhole: the adjacent AS pair most best
   paths transit — where a tunnel distorts the most measurements. *)
let pick_colluders bests =
  let key a b =
    let sa = Ia.to_string a and sb = Ia.to_string b in
    if sa < sb then sa ^ "|" ^ sb else sb ^ "|" ^ sa
  in
  let counts = ref [] in
  List.iter
    (fun (fp : Combinator.fullpath) ->
      let rec go = function
        | (h1 : Scion_addr.Hop_pred.hop) :: (h2 :: _ as rest) ->
            let k = key h1.Scion_addr.Hop_pred.ia h2.Scion_addr.Hop_pred.ia in
            (match List.assoc_opt k !counts with
            | Some (n, pair) -> counts := (k, (n + 1, pair)) :: List.remove_assoc k !counts
            | None ->
                counts :=
                  (k, (1, (h1.Scion_addr.Hop_pred.ia, h2.Scion_addr.Hop_pred.ia))) :: !counts);
            go rest
        | [ _ ] | [] -> ()
      in
      go fp.Combinator.interfaces)
    bests;
  let sorted =
    List.sort
      (fun (ka, (na, _)) (kb, (nb, _)) -> match compare nb na with 0 -> compare ka kb | c -> c)
      !counts
  in
  match sorted with [] -> None | (_, (_, pair)) :: _ -> Some pair

let transits (fp : Combinator.fullpath) ~a ~b =
  let has ia =
    List.exists (fun (h : Scion_addr.Hop_pred.hop) -> Ia.equal h.Scion_addr.Hop_pred.ia ia)
      fp.Combinator.interfaces
  in
  has a && has b

(* --- One class, one network, one engine -------------------------------- *)

(* Returns the cell plus (poisoned-path revocations, SCMP suppressions)
   this class produced. *)
let run_class ~net ~scale ~defended ~cast ~rng_adv ~rng_work attack =
  let engine = Engine.create () in
  let mesh = Network.mesh net in
  let now0 = Network.now_unix net in
  let attach c = Network.attach_adversary net ~engine ~rng:rng_adv ~defended c in
  let base =
    {
      c_attack = attack;
      c_scale = scale;
      c_defended = defended;
      c_degraded_pct = 0.0;
      c_bogus = 0;
      c_amp_kb = 0.0;
      c_flood_passed = 0;
      c_contain_s = 0.0;
    }
  in
  match attack with
  | Corrupt ->
      let _, stats =
        attach
          (Adversary.beacon_corruption ~compromised:(nth_core cast 1) ~from_s:attack_start
             ~until_s:attack_end ~period_s:burst_s ~count:12)
      in
      Engine.run engine;
      ( {
          base with
          c_bogus = stats.Network.adv_accepted;
          c_contain_s = contain_of_acceptance stats ~last_burst:(attack_end -. burst_s);
        },
        0, 0 )
  | Replay ->
      let _, stats =
        attach
          (Adversary.beacon_replay ~compromised:(nth_core cast 2) ~from_s:attack_start
             ~until_s:attack_end ~period_s:burst_s ~age_s:replay_age_s ~count:12)
      in
      Engine.run engine;
      ( {
          base with
          c_bogus = stats.Network.adv_accepted;
          c_contain_s = contain_of_acceptance stats ~last_burst:(attack_end -. burst_s);
        },
        0, 0 )
  | Forge ->
      let _, stats =
        attach
          (Adversary.mac_forgery ~compromised:(nth_core cast 3) ~from_s:attack_start
             ~until_s:attack_end ~period_s:2.0 ~count:6)
      in
      Engine.run engine;
      let delivered = stats.Network.adv_forged_delivered in
      ( {
          base with
          c_bogus = delivered;
          c_contain_s = (if delivered = 0 then 0.0 else horizon -. attack_start);
        },
        0, 0 )
  | Reflect ->
      let reflector = nth_core cast 5 in
      let _, stats =
        attach
          (Adversary.reflection ~reflector ~victim:cast.victim ~from_s:attack_start
             ~until_s:attack_end ~period_s:burst_s ~count:50)
      in
      Engine.run engine;
      let suppressed, _ = Router.scmp_rate_limited (Mesh.router mesh reflector) in
      ( {
          base with
          c_amp_kb = float_of_int stats.Network.adv_amp_bytes /. 1024.0;
          c_contain_s =
            (if stats.Network.adv_reflect_answered < stats.Network.adv_reflect_requests then 0.0
             else horizon -. attack_start);
        },
        0, suppressed )
  | Flood ->
      let _, stats =
        attach
          (Adversary.flood ~attacker:(nth_core cast 6) ~target:cast.target ~from_s:attack_start
             ~until_s:attack_end ~period_s:burst_s ~packets:400 ~duplicate_pct:30)
      in
      Engine.run engine;
      ( {
          base with
          c_flood_passed = stats.Network.adv_flood_passed;
          c_contain_s =
            (if stats.Network.adv_flood_passed < stats.Network.adv_flood_frames then 0.0
             else horizon -. attack_start);
        },
        0, 0 )
  | Rogue ->
      let _, stats =
        attach
          (Adversary.segment_poisoning ~compromised:(nth_core cast 4) ~victim:cast.victim
             ~from_s:attack_start ~until_s:(attack_start +. burst_s) ~period_s:burst_s ~count:6)
      in
      let observers = sample_observers ~rng:rng_work net ~victim:cast.victim ~k:5 in
      let daemons =
        List.map
          (fun src ->
            Daemon.create ~ia:src
              ~fetch:(fun ~dst -> Network.paths net ~src ~dst)
              ~cache_ttl:tick_s ~revocation_ttl:600.0 ())
          observers
      in
      let series = ref [] in
      schedule_ticks engine (fun t ->
          let nowu = now0 +. t in
          let n_degraded =
            List.fold_left
              (fun acc d ->
                let served, _ = Daemon.lookup d ~now:nowu ~dst:cast.victim in
                let poisoned =
                  List.filter
                    (fun p ->
                      match Mesh.walk mesh ~now:nowu p with
                      | Mesh.Walk_dropped { reason = Router.Invalid_mac; _ } -> true
                      | Mesh.Walk_dropped _ | Mesh.Walk_delivered _ -> false)
                    served
                in
                (* The defended end host feeds MAC failures back: the
                   daemon revokes the poisoned fingerprints. *)
                if defended then
                  List.iter
                    (fun p -> ignore (Daemon.handle_scmp d ~now:nowu ~path:p Scmp.Invalid_hop_field_mac))
                    poisoned;
                if poisoned <> [] then acc + 1 else acc)
              0 daemons
          in
          let frac =
            match daemons with
            | [] -> 0.0
            | _ -> float_of_int n_degraded /. float_of_int (List.length daemons)
          in
          series := (t, frac) :: !series);
      Engine.run engine;
      let series = List.rev !series in
      let poisoned_revs =
        List.fold_left (fun acc d -> acc + Daemon.poisoned_revocations d) 0 daemons
      in
      ( {
          base with
          c_bogus = stats.Network.adv_rogue;
          c_degraded_pct = 100.0 *. mean_effect series;
          c_contain_s = contain_of_series series;
        },
        poisoned_revs, 0 )
  | Wormhole -> (
      let pairs = sample_pairs ~rng:rng_work net ~k:20 in
      let bests = List.filter_map (fun (src, dst) -> best_path net ~src ~dst) pairs in
      match pick_colluders bests with
      | None -> (base, 0, 0)
      | Some (a, b) ->
          let transit_frac =
            match bests with
            | [] -> 0.0
            | l ->
                float_of_int (List.length (List.filter (fun fp -> transits fp ~a ~b) l))
                /. float_of_int (List.length l)
          in
          let _, stats = attach (Adversary.wormhole ~a ~b ~from_s:attack_start ~to_s:attack_end) in
          let series = ref [] in
          schedule_ticks engine (fun t ->
              let active = Network.wormhole_active stats ~a ~b in
              let eff =
                if active && not (defended && t >= attack_start +. detect_delay_s) then
                  transit_frac
                else 0.0
              in
              series := (t, eff) :: !series);
          Engine.run engine;
          let series = List.rev !series in
          ( {
              base with
              c_degraded_pct = 100.0 *. mean_effect series;
              c_contain_s = contain_of_series series;
            },
            0, 0 ))
  | Compromise ->
      let inject =
        Adversary.beacon_corruption ~compromised:(nth_core cast 0)
          ~from_s:(attack_start +. 0.5) ~until_s:attack_end ~period_s:burst_s ~count:12
      in
      let c =
        if defended then
          Adversary.(
            compromise_drill ~isd:cast.isd ~at_s:attack_start
              ~rotate_after_s:(rotate_at_s -. attack_start)
            ++ inject)
        else Adversary.(at attack_start [ Trc_compromise { isd = cast.isd } ] ++ inject)
      in
      let _, stats = attach c in
      Engine.run engine;
      ( {
          base with
          c_bogus = stats.Network.adv_accepted;
          c_contain_s = contain_of_acceptance stats ~last_burst:(attack_end -. burst_s +. 0.5);
        },
        0, 0 )

(* --- The experiment ---------------------------------------------------- *)

let make_net ~seed ~defended n =
  let quarantine = if defended then Some Mesh.default_quarantine else None in
  match n with
  | None -> Network.create ~seed ~per_origin:4 ~rounds:6 ~verify_pcbs:defended ?quarantine ()
  | Some n_ases ->
      let gen = Topogen.generate ~seed (Topogen.default ~n_ases) in
      Network.create ~seed ~topology:(Topology.of_topogen gen) ~per_origin:2 ~propagate_k:2
        ~fanout_cap:40
        ~rounds:(Topogen.max_depth gen + 2)
        ~verify_pcbs:defended ?quarantine ()

let strictly_contained cells scales attack =
  List.for_all
    (fun scale ->
      let find defended =
        List.find_opt
          (fun c -> c.c_attack = attack && String.equal c.c_scale scale && c.c_defended = defended)
          cells
      in
      match (find true, find false) with
      | Some on, Some off ->
          blast_scalar on < blast_scalar off && on.c_contain_s < off.c_contain_s
      | _ -> false)
    scales

let seed = 0xADD5_EC4EL
let topogen_ases = 600

let run () =
  (* Dedicated streams: attaching the adversary never touches a workload
     stream, and measurement sampling never touches the adversary's. *)
  let rng_adv = Rng.of_label seed "fault.adv" in
  (* scion-lint: rng-stream adversary.workload -- observer/pair sampling is private to this experiment *)
  let rng_work = Rng.of_label seed "adversary.workload" in
  let scales =
    [ ("sciera-29", None); (Printf.sprintf "topogen-%d" topogen_ases, Some topogen_ases) ]
  in
  let cells = ref [] in
  let q_events = ref 0
  and q_drops = ref 0
  and suppressed = ref 0
  and poisoned = ref 0
  and rotations = ref 0 in
  List.iter
    (fun (scale, n) ->
      List.iter
        (fun defended ->
          let net = make_net ~seed ~defended n in
          let mesh = Network.mesh net in
          let cast = make_cast mesh in
          List.iter
            (fun attack ->
              let cell, p, s = run_class ~net ~scale ~defended ~cast ~rng_adv ~rng_work attack in
              poisoned := !poisoned + p;
              suppressed := !suppressed + s;
              cells := cell :: !cells)
            attacks;
          q_events := !q_events + Mesh.quarantine_events mesh;
          q_drops := !q_drops + Mesh.quarantine_drops mesh;
          rotations := !rotations + Mesh.rotations mesh)
        [ true; false ])
    scales;
  let scale_names = List.map fst scales in
  (* Display order: class, then scale, defences on before off. *)
  let cells =
    List.concat_map
      (fun attack ->
        List.concat_map
          (fun scale ->
            List.filter_map
              (fun defended ->
                List.find_opt
                  (fun c ->
                    c.c_attack = attack && String.equal c.c_scale scale
                    && c.c_defended = defended)
                  !cells)
              [ true; false ])
          scale_names)
      attacks
  in
  let classes_contained =
    List.length (List.filter (strictly_contained cells scale_names) attacks)
  in
  {
    cells;
    scales = scale_names;
    classes_contained;
    quarantine_events = !q_events;
    quarantine_drops = !q_drops;
    scmp_suppressed = !suppressed;
    poisoned_revocations = !poisoned;
    rotations = !rotations;
  }

(* --- Rendering --------------------------------------------------------- *)

let print_containment b r =
  Printf.bprintf b "== Containment: blast radius and time-to-containment per adversary class ==\n";
  Buffer.add_string b (Table.render
    ~header:
      [ "attack"; "scale"; "defences"; "degraded%"; "bogus"; "amp KiB"; "flood thru"; "contain s" ]
    ~rows:
      (List.map
         (fun c ->
           [
             attack_name c.c_attack;
             c.c_scale;
             (if c.c_defended then "on" else "off");
             Table.fmt_float c.c_degraded_pct;
             string_of_int c.c_bogus;
             Table.fmt_float c.c_amp_kb;
             string_of_int c.c_flood_passed;
             Table.fmt_float c.c_contain_s;
           ])
         r.cells));
  Printf.bprintf b
    "%d/%d classes strictly contained (smaller blast radius AND faster containment with \
     defences on, at every scale); %d quarantine entries dropped %d beacons, %d SCMP \
     replies suppressed, %d poisoned paths revoked, %d TRC rotations\n\n"
    r.classes_contained (List.length attacks) r.quarantine_events r.quarantine_drops
    r.scmp_suppressed r.poisoned_revocations r.rotations
