module Rng = Scion_util.Rng

type node = int
type link_id = int

type link_params = {
  latency_ms : float;
  jitter_ms : float;
  loss : float;
  bandwidth_mbps : float;
}

let default_params = { latency_ms = 10.0; jitter_ms = 0.5; loss = 0.0; bandwidth_mbps = 1000.0 }

(* Opt-in congestion state, armed per link by [set_capacity]. [cap_bps]
   replaces the nominal [bandwidth_mbps] for serialisation; the bounded
   FIFO tail-drops at [q_limit] outstanding packets per direction; the
   fluid fields carry the background flow-level load (Traffic.Flow) that
   the packet path's serialisation sees as consumed capacity. A link with
   [cap = None] behaves exactly as before this field existed. *)
type cap = {
  cap_bps : float;
  q_limit : int;
  mutable fluid_ab : float;
  mutable fluid_ba : float;
  mutable q_ab : int;
  mutable q_ba : int;
  mutable qbytes_ab : int;
  mutable qbytes_ba : int;
}

type link = {
  a : node;
  b : node;
  p : link_params;
  mutable up : bool;
  mutable extra_ms : float;
  mutable extra_loss : float;
  (* FIFO serialisation state for packet-level mode, per direction. *)
  mutable busy_until_ab : float;
  mutable busy_until_ba : float;
  mutable cap : cap option;
}

type drop_cause = Link_down | Random_loss | Queue_full

type link_event =
  | Tx of { link : link_id; src : node; size_bytes : int; wait_s : float }
  | Rx of { link : link_id; dst : node; size_bytes : int }
  | Drop of { link : link_id; src : node; size_bytes : int; cause : drop_cause }

type t = {
  rng : Rng.t;
  name_index : (string, node) Hashtbl.t;
  mutable nodes : int;
  mutable links : link array;
  mutable nlinks : int;
  (* Flat per-node adjacency: link ids in insertion order with an explicit
     length, iterated newest-first to preserve the historic prepend-order
     tie-breaking of [route] and [links_of]. Dense int arrays keep the
     thousand-AS Dijkstra walks free of per-packet list chasing. *)
  mutable adj : link_id array array;
  mutable adj_len : int array;
  (* Monitors are prepended in O(1) and normalised into registration order
     once at the first notification after a change. *)
  mutable monitors_rev : (link_event -> unit) list;
  mutable monitors : (link_event -> unit) array;
  mutable monitors_stale : bool;
}

let create ~rng =
  {
    rng;
    name_index = Hashtbl.create 64;
    nodes = 0;
    links = [||];
    nlinks = 0;
    adj = Array.make 16 [||];
    adj_len = Array.make 16 0;
    monitors_rev = [];
    monitors = [||];
    monitors_stale = false;
  }

let set_monitor t f =
  t.monitors_rev <- [ f ];
  t.monitors_stale <- true

let add_monitor t f =
  t.monitors_rev <- f :: t.monitors_rev;
  t.monitors_stale <- true

let monitor_array t =
  if t.monitors_stale then begin
    t.monitors <- Array.of_list (List.rev t.monitors_rev);
    t.monitors_stale <- false
  end;
  t.monitors

let notify t ev = Array.iter (fun f -> f ev) (monitor_array t)

let add_node t name =
  if Hashtbl.mem t.name_index name then
    invalid_arg (Printf.sprintf "Net.add_node: duplicate node %S" name);
  if t.nodes = Array.length t.adj then begin
    let adj = Array.make (2 * t.nodes) [||] in
    Array.blit t.adj 0 adj 0 t.nodes;
    t.adj <- adj;
    let adj_len = Array.make (2 * t.nodes) 0 in
    Array.blit t.adj_len 0 adj_len 0 t.nodes;
    t.adj_len <- adj_len
  end;
  let id = t.nodes in
  t.nodes <- id + 1;
  Hashtbl.replace t.name_index name id;
  id

let node_of_name t name = Hashtbl.find_opt t.name_index name

(* Parameter validation: a NaN or negative latency silently corrupts every
   RTT sample drawn over the link, and an out-of-range loss either never or
   always drops — all four fields fail fast instead. *)
let check_params (p : link_params) =
  let finite_nonneg name v =
    if not (Float.is_finite v) || v < 0.0 then
      invalid_arg (Printf.sprintf "Net.add_link: %s must be finite and >= 0 (got %g)" name v)
  in
  finite_nonneg "latency_ms" p.latency_ms;
  finite_nonneg "jitter_ms" p.jitter_ms;
  if Float.is_nan p.loss || p.loss < 0.0 || p.loss > 1.0 then
    invalid_arg (Printf.sprintf "Net.add_link: loss must be in [0, 1] (got %g)" p.loss);
  if Float.is_nan p.bandwidth_mbps || p.bandwidth_mbps <= 0.0 then
    invalid_arg
      (Printf.sprintf "Net.add_link: bandwidth_mbps must be > 0 (got %g)" p.bandwidth_mbps)

let add_link t a b p =
  if a = b then invalid_arg "Net.add_link: self loop";
  if a < 0 || a >= t.nodes || b < 0 || b >= t.nodes then invalid_arg "Net.add_link: bad endpoint";
  check_params p;
  let link =
    {
      a;
      b;
      p;
      up = true;
      extra_ms = 0.0;
      extra_loss = 0.0;
      busy_until_ab = 0.0;
      busy_until_ba = 0.0;
      cap = None;
    }
  in
  if t.nlinks = Array.length t.links then begin
    let links = Array.make (max 16 (2 * t.nlinks)) link in
    Array.blit t.links 0 links 0 t.nlinks;
    t.links <- links
  end;
  let id = t.nlinks in
  t.links.(id) <- link;
  t.nlinks <- id + 1;
  let push n =
    let arr = t.adj.(n) and len = t.adj_len.(n) in
    if len = Array.length arr then begin
      let bigger = Array.make (max 4 (2 * len)) 0 in
      Array.blit arr 0 bigger 0 len;
      t.adj.(n) <- bigger
    end;
    t.adj.(n).(len) <- id;
    t.adj_len.(n) <- len + 1
  in
  push a;
  push b;
  id

let get t id =
  if id < 0 || id >= t.nlinks then invalid_arg "Net: bad link id";
  t.links.(id)

let endpoints t id =
  let l = get t id in
  (l.a, l.b)

let num_links t = t.nlinks

let links_of t n =
  let len = t.adj_len.(n) in
  List.init len (fun i -> t.adj.(n).(len - 1 - i))
let set_link_up t id up = (get t id).up <- up
let link_up t id = (get t id).up

let set_extra_latency t id ms =
  if not (Float.is_finite ms) || ms < 0.0 then
    invalid_arg (Printf.sprintf "Net.set_extra_latency: must be finite and >= 0 (got %g)" ms);
  (get t id).extra_ms <- ms

let extra_latency t id = (get t id).extra_ms

let set_extra_loss t id loss =
  if Float.is_nan loss || loss < 0.0 || loss > 1.0 then
    invalid_arg (Printf.sprintf "Net.set_extra_loss: must be in [0, 1] (got %g)" loss);
  (get t id).extra_loss <- loss

let extra_loss t id = (get t id).extra_loss

(* Capacity validation mirrors [check_params]: a NaN or non-positive
   capacity makes every serialisation time nonsensical, and a queue bound
   below one packet can never transmit — both fail fast at arming time. *)
let set_capacity t id ~bps ~queue_pkts =
  if not (Float.is_finite bps) || bps <= 0.0 then
    invalid_arg (Printf.sprintf "Net.set_capacity: bps must be finite and > 0 (got %g)" bps);
  if queue_pkts < 1 then
    invalid_arg (Printf.sprintf "Net.set_capacity: queue_pkts must be >= 1 (got %d)" queue_pkts);
  (get t id).cap <-
    Some
      {
        cap_bps = bps;
        q_limit = queue_pkts;
        fluid_ab = 0.0;
        fluid_ba = 0.0;
        q_ab = 0;
        q_ba = 0;
        qbytes_ab = 0;
        qbytes_ba = 0;
      }

let capacity t id =
  match (get t id).cap with None -> None | Some c -> Some (c.cap_bps, c.q_limit)

(* Direction resolution shared by the fluid/queue accessors: [from] names
   the sending endpoint, so state is per transmit direction. *)
let dir_ab name l from =
  if from = l.a then true
  else if from = l.b then false
  else invalid_arg (name ^ ": sender is not an endpoint")

let armed name l =
  match l.cap with
  | Some c -> c
  | None -> invalid_arg (name ^ ": link has no capacity armed (call set_capacity first)")

let set_fluid_load t id ~from ~bps =
  if not (Float.is_finite bps) || bps < 0.0 then
    invalid_arg (Printf.sprintf "Net.set_fluid_load: bps must be finite and >= 0 (got %g)" bps);
  let l = get t id in
  let c = armed "Net.set_fluid_load" l in
  if dir_ab "Net.set_fluid_load" l from then c.fluid_ab <- bps else c.fluid_ba <- bps

let fluid_load t id ~from =
  let l = get t id in
  match l.cap with
  | None -> 0.0
  | Some c -> if dir_ab "Net.fluid_load" l from then c.fluid_ab else c.fluid_ba

(* The packet path keeps a residual floor of 1% of capacity even under
   full fluid load, so foreground probes always drain (slowly) instead of
   dividing by zero — congestion then shows up as queueing delay and
   tail drops, which is what the experiment measures. *)
let avail_bps c fluid = Float.max (0.01 *. c.cap_bps) (c.cap_bps -. fluid)

(* Effective per-traversal loss. The base + burst sum keeps the RNG draw
   discipline of [transmit]/[sample_one_way] intact: with no burst active
   the guard and the draw are exactly the pre-burst ones. *)
let loss_of l = Float.min 1.0 (l.p.loss +. l.extra_loss)

let one_way_ms_with ~rng l =
  l.p.latency_ms +. l.extra_ms +. Rng.exponential rng ~rate:(1.0 /. Float.max 1e-6 l.p.jitter_ms)

let one_way_ms t l = one_way_ms_with ~rng:t.rng l

let sample_one_way_with t ~rng id =
  let l = get t id in
  if not l.up then `Lost
  else if loss_of l > 0.0 && Rng.float rng 1.0 < loss_of l then `Lost
  else `Delivered (one_way_ms_with ~rng l)

let sample_one_way t id = sample_one_way_with t ~rng:t.rng id

let path_rtt_with t ~rng ids =
  let rec go acc = function
    | [] -> `Rtt acc
    | id :: rest -> (
        match sample_one_way_with t ~rng id with
        | `Lost -> `Lost
        | `Delivered ms -> go (acc +. ms) rest)
  in
  (* Forward, then return traversal with independent samples. *)
  match go 0.0 ids with `Lost -> `Lost | `Rtt fwd -> ( match go fwd ids with r -> r)

let path_rtt t ids = path_rtt_with t ~rng:t.rng ids

let path_base_latency t ids =
  List.fold_left
    (fun acc id ->
      let l = get t id in
      acc +. l.p.latency_ms +. l.extra_ms)
    0.0 ids

let transmit t engine id ~from ~size_bytes ~on_arrival =
  let l = get t id in
  let dst =
    if from = l.a then l.b
    else if from = l.b then l.a
    else invalid_arg "Net.transmit: sender is not an endpoint"
  in
  (* Ordering matters for determinism: a down link must not consume an RNG
     draw, and the loss draw happens exactly once per send attempt. *)
  if not l.up then notify t (Drop { link = id; src = from; size_bytes; cause = Link_down })
  else if loss_of l > 0.0 && Rng.float t.rng 1.0 < loss_of l then
    notify t (Drop { link = id; src = from; size_bytes; cause = Random_loss })
  else begin
    let now = Engine.now engine in
    let busy_until, set_busy =
      if from = l.a then (l.busy_until_ab, fun v -> l.busy_until_ab <- v)
      else (l.busy_until_ba, fun v -> l.busy_until_ba <- v)
    in
    let deliver ~start ~done_sending =
      notify t (Tx { link = id; src = from; size_bytes; wait_s = start -. now });
      let arrival = done_sending +. (one_way_ms t l /. 1000.0) in
      Engine.schedule_at engine ~time:arrival (fun () ->
        notify t (Rx { link = id; dst; size_bytes });
        on_arrival ())
    in
    match l.cap with
    | None ->
        (* Legacy path: nominal bandwidth, no queue bound. Byte-identical
           behaviour (and engine event count) for every unarmed fabric. *)
        let serialization = float_of_int size_bytes *. 8.0 /. (l.p.bandwidth_mbps *. 1e6) in
        let start = Float.max now busy_until in
        let done_sending = start +. serialization in
        set_busy done_sending;
        deliver ~start ~done_sending
    | Some c ->
        let ab = from = l.a in
        let q = if ab then c.q_ab else c.q_ba in
        if q >= c.q_limit then
          notify t (Drop { link = id; src = from; size_bytes; cause = Queue_full })
        else begin
          (* Serialisation over what the fluid background leaves free;
             the bounded FIFO admits the packet and releases its slot
             when it finishes serialising. *)
          let fluid = if ab then c.fluid_ab else c.fluid_ba in
          let serialization = float_of_int size_bytes *. 8.0 /. avail_bps c fluid in
          let start = Float.max now busy_until in
          let done_sending = start +. serialization in
          set_busy done_sending;
          if ab then begin
            c.q_ab <- q + 1;
            c.qbytes_ab <- c.qbytes_ab + size_bytes
          end
          else begin
            c.q_ba <- q + 1;
            c.qbytes_ba <- c.qbytes_ba + size_bytes
          end;
          Engine.schedule_at engine ~time:done_sending (fun () ->
            if ab then begin
              c.q_ab <- max 0 (c.q_ab - 1);
              c.qbytes_ab <- max 0 (c.qbytes_ab - size_bytes)
            end
            else begin
              c.q_ba <- max 0 (c.q_ba - 1);
              c.qbytes_ba <- max 0 (c.qbytes_ba - size_bytes)
            end);
          deliver ~start ~done_sending
        end
  end

(* Uniform-cost search over up links; [weight] chooses the metric.
   Binary-heap Dijkstra with lazy deletion, keyed (distance, node id) so
   equal-distance ties settle on the lowest node id — the same settlement
   order as the historic O(n^2) extract-min scan, which is what keeps
   every route (and therefore every golden) identical at any scale. *)
let route t ~src ~dst ~weight =
  if src = dst then Some (0.0, [])
  else begin
    let dist = Array.make t.nodes infinity in
    let via = Array.make t.nodes None in
    let settled = Array.make t.nodes false in
    dist.(src) <- 0.0;
    (* Parallel-array heap: distances and node ids, no per-entry tuple. *)
    let hd = ref (Array.make 64 0.0) in
    let hn = ref (Array.make 64 0) in
    let hsize = ref 0 in
    let before i j =
      let c = Float.compare !hd.(i) !hd.(j) in
      c < 0 || (c = 0 && !hn.(i) < !hn.(j))
    in
    let swap i j =
      let d = !hd.(i) and n = !hn.(i) in
      !hd.(i) <- !hd.(j);
      !hn.(i) <- !hn.(j);
      !hd.(j) <- d;
      !hn.(j) <- n
    in
    let push d n =
      if !hsize = Array.length !hd then begin
        let bd = Array.make (2 * !hsize) 0.0 and bn = Array.make (2 * !hsize) 0 in
        Array.blit !hd 0 bd 0 !hsize;
        Array.blit !hn 0 bn 0 !hsize;
        hd := bd;
        hn := bn
      end;
      let i = ref !hsize in
      !hd.(!i) <- d;
      !hn.(!i) <- n;
      incr hsize;
      let continue = ref true in
      while !continue && !i > 0 do
        let parent = (!i - 1) / 2 in
        if before !i parent then begin
          swap !i parent;
          i := parent
        end
        else continue := false
      done
    in
    let pop () =
      let n = !hn.(0) in
      decr hsize;
      if !hsize > 0 then begin
        !hd.(0) <- !hd.(!hsize);
        !hn.(0) <- !hn.(!hsize);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < !hsize && before l !smallest then smallest := l;
          if r < !hsize && before r !smallest then smallest := r;
          if !smallest <> !i then begin
            swap !smallest !i;
            i := !smallest
          end
          else continue := false
        done
      end;
      n
    in
    push 0.0 src;
    let exception Done in
    (try
       while !hsize > 0 do
         let u = pop () in
         if u = dst then raise Done;
         if not settled.(u) then begin
           settled.(u) <- true;
           (* Newest-first over the adjacency slice: the historic prepend
              order that breaks equal-cost ties. *)
           for k = t.adj_len.(u) - 1 downto 0 do
             let id = t.adj.(u).(k) in
             let l = t.links.(id) in
             if l.up then begin
               let v = if l.a = u then l.b else l.a in
               let d = dist.(u) +. weight l in
               if d < dist.(v) -. 1e-12 then begin
                 dist.(v) <- d;
                 via.(v) <- Some (id, u);
                 push d v
               end
             end
           done
         end
       done
     with Done -> ());
    if dist.(dst) = infinity then None
    else begin
      let rec backtrack v acc =
        match via.(v) with
        | None -> acc
        | Some (id, prev) -> backtrack prev (id :: acc)
      in
      Some (dist.(dst), backtrack dst [])
    end
  end

let dijkstra t ~src ~dst = route t ~src ~dst ~weight:(fun l -> l.p.latency_ms +. l.extra_ms)

let min_hop_route t ~src ~dst =
  Option.map snd (route t ~src ~dst ~weight:(fun _ -> 1.0))

let connected t ~src ~dst = route t ~src ~dst ~weight:(fun _ -> 1.0) <> None
