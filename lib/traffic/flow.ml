(* The fluid flow layer: active flows hold a max-min fair share of every
   capacity-armed link they cross, recomputed on each arrival and
   departure, and pushed into [Net.set_fluid_load] so the packet-level
   foreground sees the background load as consumed capacity (hybrid
   fidelity). The engine drives completions with a single pending timer
   for the earliest-finishing flow; a generation counter invalidates
   timers made stale by a recompute. The per-directed-link flow index the
   allocator reads is kept across events: an arrival appends to its links'
   member arrays, a departure compacts them, and only the progressive
   filling itself runs from scratch. Nothing here draws randomness — all
   stochasticity lives in [Workload] — so attaching a flow engine never
   perturbs any other RNG stream. *)

module Engine = Netsim.Engine
module Net = Netsim.Net
module M = Telemetry.Metrics

type hop = { link : Net.link_id; from : Net.node }

(* A directed link is the integer [2 * link + side], where [side] is 0
   when it is entered from the lower-numbered endpoint and 1 otherwise, so
   ascending directed-link order is ascending [(link, from)] order. *)
let dir_of net { link; from } =
  let a, b = Net.endpoints net link in
  if from = Int.min a b then 2 * link
  else if from = Int.max a b then (2 * link) + 1
  else
    invalid_arg
      (Printf.sprintf "Flow.offer: node %d is not an endpoint of link %d" from link)

let link_of_dir d = d lsr 1

let from_of_dir net d =
  let a, b = Net.endpoints net (link_of_dir d) in
  if d land 1 = 0 then Int.min a b else Int.max a b

type flow = {
  id : int;
  (* Directed links crossed, one per hop in hop order (a link crossed
     twice appears twice: it takes two shares of that capacity). *)
  dirs : int array;
  (* The same set without repeats: what the admission counts track. *)
  distinct : int array;
  size : float;  (* bytes, as offered *)
  t_start : float;
  (* Bits left to deliver: rates are bps, so integration stays in bits and
     the byte/bit factor appears exactly once, at offer. *)
  mutable remaining : float;
  mutable rate : float;
  (* Water-filling scratch: true once the flow's rate is frozen at its
     bottleneck share during the current recompute. *)
  mutable frozen : bool;
}

type stats = {
  started : int;
  completed : int;
  rejected : int;
  offered_bytes : float;
  delivered_bytes : float;
  rejected_bytes : float;
}

type metrics = {
  m_started : M.counter;
  m_completed : M.counter;
  m_rejected : M.counter;
  m_offered : M.counter;
  m_delivered : M.counter;
  m_active : M.gauge;
  m_fct : M.summary;
  m_recomputes : M.counter;
}

(* Per-directed-link state, indexed by directed link and grown on demand.
   [crossing], [members] and [n_members] live across recomputes; the rest
   is recompute scratch, valid only for the directed links in use. *)
type links = {
  mutable crossing : int array;  (* distinct active flows crossing *)
  (* The active flows' hop entries on the link in ascending flow order, in
     [members.(d).(0 .. n_members.(d) - 1)]: a flow crossing the link
     twice appears twice, adjacently. Slots past the count hold [vacant]. *)
  mutable members : flow array array;
  mutable n_members : int array;
  mutable unfrozen : int array;
  mutable stamp : int array;  (* last filling round or completion sweep to visit the link *)
  mutable cap : float array;
  mutable frozen_load : float array;
  mutable share : float array;
}

type t = {
  engine : Engine.t;
  net : Net.t;
  min_rate_bps : float;
  mutable next_id : int;
  (* Active flows in ascending id order in [active.(0 .. n_active-1)]
     (append at tail): the recompute and tie-breaks iterate this order,
     never a hash order. *)
  mutable active : flow array;
  mutable n_active : int;
  mutable last_update : float;
  mutable generation : int;
  links : links;
  (* The directed links with at least one member, ascending: the set the
     filling scans, kept on the first entry and the last departure. *)
  mutable used : int array;
  mutable n_used : int;
  (* Links that lost their last member since the last push; the next push
     releases the ones still empty. *)
  mutable released : int array;
  mutable n_released : int;
  (* Filling scratch, sized to [used]. *)
  mutable live : int array;
  mutable touched : int array;
  (* Filler for vacated slots, so no completed flow stays reachable. *)
  vacant : flow;
  mutable round : int;
  mutable started : int;
  mutable completed : int;
  mutable rejected : int;
  mutable offered_bytes : float;
  mutable delivered_bytes : float;
  mutable rejected_bytes : float;
  on_complete : (fct_s:float -> size_bytes:float -> unit) option;
  metrics : metrics option;
}

(* Flows within half a bit of done are complete: simulated times are
   compared with <=, never with float equality. *)
let eps_bits = 0.5

let create ?metrics ?labels ?(min_rate_bps = 0.0) ?on_complete ~engine net =
  if not (Float.is_finite min_rate_bps) || min_rate_bps < 0.0 then
    invalid_arg
      (Printf.sprintf "Flow.create: min_rate_bps must be finite and >= 0 (got %g)" min_rate_bps);
  let metrics =
    Option.map
      (fun reg ->
        {
          m_started = M.counter reg ?labels "traffic.flows_started";
          m_completed = M.counter reg ?labels "traffic.flows_completed";
          m_rejected = M.counter reg ?labels "traffic.flows_rejected";
          m_offered = M.counter reg ?labels "traffic.offered_bytes";
          m_delivered = M.counter reg ?labels "traffic.delivered_bytes";
          m_active = M.gauge reg ?labels "traffic.active_flows";
          m_fct = M.summary reg ?labels "traffic.fct_s";
          m_recomputes = M.counter reg ?labels "traffic.recomputes";
        })
      metrics
  in
  {
    engine;
    net;
    min_rate_bps;
    next_id = 0;
    active = [||];
    n_active = 0;
    last_update = Engine.now engine;
    generation = 0;
    links =
      {
        crossing = [||];
        members = [||];
        n_members = [||];
        unfrozen = [||];
        stamp = [||];
        cap = [||];
        frozen_load = [||];
        share = [||];
      };
    used = [||];
    n_used = 0;
    released = [||];
    n_released = 0;
    live = [||];
    touched = [||];
    vacant =
      {
        id = -1;
        dirs = [||];
        distinct = [||];
        size = 0.0;
        t_start = 0.0;
        remaining = 0.0;
        rate = 0.0;
        frozen = false;
      };
    round = 0;
    started = 0;
    completed = 0;
    rejected = 0;
    offered_bytes = 0.0;
    delivered_bytes = 0.0;
    rejected_bytes = 0.0;
    on_complete;
    metrics;
  }

let with_metrics t f = match t.metrics with None -> () | Some m -> f m

(* [a] extended (doubling) to hold index [n - 1], new cells set to [fill]. *)
let grow a n fill =
  let len = Array.length a in
  if n <= len then a
  else begin
    let b = Array.make (Int.max n (2 * len)) fill in
    Array.blit a 0 b 0 len;
    b
  end

(* Make every per-directed-link array cover directed link [d]; the first
   call sizes them to every directed link [net] has. *)
let cover net l d =
  if d >= Array.length l.crossing then begin
    let n = Int.max (d + 1) (2 * Net.num_links net) in
    l.crossing <- grow l.crossing n 0;
    l.members <- grow l.members n [||];
    l.n_members <- grow l.n_members n 0;
    l.unfrozen <- grow l.unfrozen n 0;
    l.stamp <- grow l.stamp n 0;
    l.cap <- grow l.cap n 0.0;
    l.frozen_load <- grow l.frozen_load n 0.0;
    l.share <- grow l.share n 0.0
  end

(* Advance every active flow by the time since the last allocation change
   at its current rate. Rates are constant between recomputes, so this is
   exact fluid integration, not an approximation. *)
let elapse t =
  let now = Engine.now t.engine in
  let dt = now -. t.last_update in
  if dt > 0.0 then
    for i = 0 to t.n_active - 1 do
      let f = t.active.(i) in
      f.remaining <- Float.max 0.0 (f.remaining -. (f.rate *. dt))
    done;
  t.last_update <- now

(* The fair share left on directed link [d] for its unfrozen entries. *)
let refresh_share l d =
  l.share.(d) <- Float.max 0.0 (l.cap.(d) -. l.frozen_load.(d)) /. float_of_int l.unfrozen.(d)

(* The frozen load on [d], summed from 0.0 over its members in ascending
   flow order: the summation order fixes the bits of every share. *)
let refresh_frozen_load l d =
  let members = l.members.(d) in
  let load = ref 0.0 in
  for e = 0 to l.n_members.(d) - 1 do
    let f = members.(e) in
    if f.frozen then load := !load +. f.rate
  done;
  l.frozen_load.(d) <- !load

(* Insert [d] into / remove it from the ascending [used] set. *)
let use t d =
  t.used <- grow t.used (t.n_used + 1) 0;
  let k = ref t.n_used in
  while !k > 0 && t.used.(!k - 1) > d do
    t.used.(!k) <- t.used.(!k - 1);
    decr k
  done;
  t.used.(!k) <- d;
  t.n_used <- t.n_used + 1

let unuse t d =
  let k = ref 0 in
  while t.used.(!k) <> d do
    incr k
  done;
  Array.blit t.used (!k + 1) t.used !k (t.n_used - !k - 1);
  t.n_used <- t.n_used - 1;
  t.released <- grow t.released (t.n_released + 1) 0;
  t.released.(t.n_released) <- d;
  t.n_released <- t.n_released + 1

(* Append [f], the newest active flow, to the members of every link it
   crosses (twice for a link crossed twice), keeping flow order. *)
let add_members t f =
  let l = t.links in
  Array.iter
    (fun d ->
      let n = l.n_members.(d) in
      if n = 0 then use t d;
      l.members.(d) <- grow l.members.(d) (n + 1) t.vacant;
      l.members.(d).(n) <- f;
      l.n_members.(d) <- n + 1)
    f.dirs

let is_done f = f.remaining <= eps_bits

(* Drop the completed flows' entries from [d], keeping the survivors'
   order, and clear the vacated slots. *)
let compact t d =
  let l = t.links in
  let members = l.members.(d) and n = l.n_members.(d) in
  let kept = ref 0 in
  for e = 0 to n - 1 do
    let f = members.(e) in
    if not (is_done f) then begin
      members.(!kept) <- f;
      incr kept
    end
  done;
  Array.fill members !kept (n - !kept) t.vacant;
  l.n_members.(d) <- !kept;
  if !kept = 0 then unuse t d

(* Max-min fair share by progressive filling over the persistent member
   arrays. Each round freezes the unfrozen flows of the directed link with
   the smallest fair share (ties to the smallest directed link), then
   re-sums the frozen load only on the links those flows cross. Per
   recompute: O(U) to reset the U used directed links, then per round (at
   most U of them) an O(U) minimum scan plus a re-sum of the touched
   links' members — flows are bulk background load, deliberately off the
   per-packet hot path. *)
let allocate t =
  let l = t.links in
  for i = 0 to t.n_active - 1 do
    t.active.(i).frozen <- false
  done;
  let n_used = t.n_used in
  for k = 0 to n_used - 1 do
    let d = t.used.(k) in
    let link = link_of_dir d in
    (match Net.capacity t.net link with
    | Some (bps, _) -> l.cap.(d) <- bps
    | None ->
        invalid_arg (Printf.sprintf "Flow: link %d crossed by a flow has no capacity armed" link));
    l.frozen_load.(d) <- 0.0;
    l.unfrozen.(d) <- l.n_members.(d);
    refresh_share l d
  done;
  (* Progressive filling. [live] holds the directed links that still have
     unfrozen entries, ascending; each scan compacts it and picks the
     smallest share with a strict [<], so ties go to the smallest link. *)
  t.live <- grow t.live n_used 0;
  t.touched <- grow t.touched n_used 0;
  let live = t.live and touched = t.touched in
  Array.blit t.used 0 live 0 n_used;
  let n_live = ref n_used in
  while !n_live > 0 do
    let best = ref (-1) and best_share = ref 0.0 and kept = ref 0 in
    for k = 0 to !n_live - 1 do
      let d = live.(k) in
      if l.unfrozen.(d) > 0 then begin
        live.(!kept) <- d;
        incr kept;
        if !best < 0 || l.share.(d) < !best_share then begin
          best := d;
          best_share := l.share.(d)
        end
      end
    done;
    n_live := !kept;
    if !best >= 0 then begin
      let d = !best and share = !best_share in
      t.round <- t.round + 1;
      let n_touched = ref 0 in
      let members = l.members.(d) in
      for e = 0 to l.n_members.(d) - 1 do
        let f = members.(e) in
        if not f.frozen then begin
          f.frozen <- true;
          f.rate <- share;
          for k = 0 to Array.length f.dirs - 1 do
            let d' = f.dirs.(k) in
            l.unfrozen.(d') <- l.unfrozen.(d') - 1;
            if l.stamp.(d') <> t.round then begin
              l.stamp.(d') <- t.round;
              touched.(!n_touched) <- d';
              incr n_touched
            end
          done
        end
      done;
      (* An unfrozen entry that no member flow holds would spin forever. *)
      if !n_touched = 0 then invalid_arg "Flow: per-link index out of step with the active flows";
      for k = 0 to !n_touched - 1 do
        let d' = touched.(k) in
        refresh_frozen_load l d';
        if l.unfrozen.(d') > 0 then refresh_share l d'
      done
    end
  done;
  (* Every flow is frozen now, so each used link's frozen load is its full
     sum in flow order. Release the links that lost their last member and
     stayed empty, then push in ascending directed-link order. *)
  for k = 0 to t.n_released - 1 do
    let d = t.released.(k) in
    if l.n_members.(d) = 0 then
      Net.set_fluid_load t.net (link_of_dir d) ~from:(from_of_dir t.net d) ~bps:0.0
  done;
  t.n_released <- 0;
  for k = 0 to n_used - 1 do
    let d = t.used.(k) in
    Net.set_fluid_load t.net (link_of_dir d) ~from:(from_of_dir t.net d) ~bps:l.frozen_load.(d)
  done;
  with_metrics t (fun m -> M.inc m.m_recomputes)

let rec finish_due t =
  let now = Engine.now t.engine in
  (* Compact the survivors in place, releasing each finished flow's
     admission counts and index entries before any callback can offer a
     new flow. *)
  let due = ref [] and kept = ref 0 in
  t.round <- t.round + 1;
  for i = 0 to t.n_active - 1 do
    let f = t.active.(i) in
    if is_done f then begin
      Array.iter
        (fun d ->
          t.links.crossing.(d) <- t.links.crossing.(d) - 1;
          if t.links.stamp.(d) <> t.round then begin
            t.links.stamp.(d) <- t.round;
            compact t d
          end)
        f.distinct;
      due := f :: !due
    end
    else begin
      t.active.(!kept) <- f;
      incr kept
    end
  done;
  Array.fill t.active !kept (t.n_active - !kept) t.vacant;
  t.n_active <- !kept;
  List.iter
    (fun f ->
      t.completed <- t.completed + 1;
      t.delivered_bytes <- t.delivered_bytes +. f.size;
      let fct = now -. f.t_start in
      with_metrics t (fun m ->
          M.inc m.m_completed;
          M.add m.m_delivered (int_of_float f.size);
          M.record m.m_fct fct;
          M.set m.m_active (float_of_int t.n_active));
      match t.on_complete with None -> () | Some cb -> cb ~fct_s:fct ~size_bytes:f.size)
    (List.rev !due)

and schedule_next t =
  let soonest = ref Float.infinity and found = ref false in
  for i = 0 to t.n_active - 1 do
    let f = t.active.(i) in
    if f.rate > 0.0 then begin
      let eta = f.remaining /. f.rate in
      if (not !found) || eta < !soonest then begin
        found := true;
        soonest := eta
      end
    end
  done;
  if !found then begin
    let gen = t.generation in
    let now = Engine.now t.engine in
    Engine.schedule_at t.engine ~time:(now +. !soonest) (fun () ->
        if gen = t.generation then recompute t)
  end

and recompute t =
  t.generation <- t.generation + 1;
  elapse t;
  finish_due t;
  allocate t;
  schedule_next t

(* Cheap deterministic admission bound: the new flow's share on each hop
   can be no better than capacity over the flows already there plus
   itself. Rejecting below [min_rate_bps] models access-queue overflow for
   background load — the fluid analogue of a tail drop. *)
let admissible t dirs caps =
  t.min_rate_bps <= 0.0
  || Array.for_all2
       (fun d cap -> cap /. float_of_int (t.links.crossing.(d) + 1) >= t.min_rate_bps)
       dirs caps

let offer t ~hops ~size_bytes =
  if not (Float.is_finite size_bytes) || size_bytes <= 0.0 then
    invalid_arg (Printf.sprintf "Flow.offer: size_bytes must be finite and > 0 (got %g)" size_bytes);
  if hops = [] then invalid_arg "Flow.offer: empty hop list";
  (* Resolve every hop before any state changes, so an invalid hop leaves
     the engine and the fabric untouched. *)
  let hops = Array.of_list hops in
  let caps =
    Array.map
      (fun h ->
        match Net.capacity t.net h.link with
        | Some (bps, _) -> bps
        | None ->
            invalid_arg
              (Printf.sprintf "Flow.offer: link %d has no capacity armed (call Net.set_capacity)"
                 h.link))
      hops
  in
  let dirs = Array.map (dir_of t.net) hops in
  Array.iter (cover t.net t.links) dirs;
  t.offered_bytes <- t.offered_bytes +. size_bytes;
  with_metrics t (fun m -> M.add m.m_offered (int_of_float size_bytes));
  if not (admissible t dirs caps) then begin
    t.rejected <- t.rejected + 1;
    t.rejected_bytes <- t.rejected_bytes +. size_bytes;
    with_metrics t (fun m -> M.inc m.m_rejected);
    `Rejected
  end
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let distinct = Array.of_list (List.sort_uniq Int.compare (Array.to_list dirs)) in
    let f =
      {
        id;
        dirs;
        distinct;
        size = size_bytes;
        t_start = Engine.now t.engine;
        remaining = size_bytes *. 8.0;
        rate = 0.0;
        frozen = false;
      }
    in
    (* Elapse the others before the population changes, then append in id
       order and reallocate. *)
    elapse t;
    t.active <- grow t.active (t.n_active + 1) t.vacant;
    t.active.(t.n_active) <- f;
    t.n_active <- t.n_active + 1;
    Array.iter (fun d -> t.links.crossing.(d) <- t.links.crossing.(d) + 1) distinct;
    add_members t f;
    t.started <- t.started + 1;
    with_metrics t (fun m ->
        M.inc m.m_started;
        M.set m.m_active (float_of_int t.n_active));
    t.generation <- t.generation + 1;
    allocate t;
    schedule_next t;
    `Started id
  end

let recompute_now t = recompute t
let active_count t = t.n_active

let rate t id =
  let rec find i =
    if i >= t.n_active then None
    else
      let f = t.active.(i) in
      if f.id = id then Some f.rate else find (i + 1)
  in
  find 0

let stats t =
  {
    started = t.started;
    completed = t.completed;
    rejected = t.rejected;
    offered_bytes = t.offered_bytes;
    delivered_bytes = t.delivered_bytes;
    rejected_bytes = t.rejected_bytes;
  }
