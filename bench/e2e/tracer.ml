(* Span tracing from outside the library: the benchmark wraps each call it
   makes into a public function of a layer in a span, so [lib/] stays
   clock-free. Spans nest on a stack; a span's self time is its duration
   minus the time its child spans cover. Every span name accumulates
   calls, self nanoseconds and a self-time histogram. Full
   records (id, parent, op id) are kept for 1 op in [sample_every] and for
   every span declared [~keep:true] (set-up and re-beaconing), and are
   rendered as [Telemetry.Trace] JSONL when the run ends.

   The open-span stack lives in preallocated arrays, so entering and
   leaving a span allocates nothing beyond a kept record: the less the
   tracer does outside the clock reads, the more of the loop the spans
   account for. *)

(* The benchmark's only clock: CLOCK_MONOTONIC in nanoseconds. It times
   the harness itself and never feeds simulated time. *)
(* scion-lint: allow determinism -- wall-clock timing of the benchmark harness, not simulated time *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

type phase = Setup | Loop | Post

type decl = { d_name : string; d_phase : phase; d_keep : bool }

(* The span catalogue, filled at module initialisation by [declare]. *)
let catalogue : decl list ref = ref []

type id = int

let declare ?(keep = false) ~phase name : id =
  let id = List.length !catalogue in
  catalogue := !catalogue @ [ { d_name = name; d_phase = phase; d_keep = keep } ];
  id

let declared () = !catalogue

type stat = { mutable calls : int; mutable self_ns : int; self_hist : Hist.t }

let sample_every = 64
let max_depth = 64

type t = {
  decls : decl array;
  stats : stat array;
  (* The open-span stack, one slot per depth. *)
  s_stat : int array;
  s_id : int array;
  s_start : int array;
  s_child_ns : int array;
  s_record : Telemetry.Trace.span option array;
  mutable depth : int;
  mutable next_id : int;
  mutable req : int;  (** Current op id; -1 outside ops. *)
  mutable sampled : bool;
  records : Telemetry.Trace.t;
  origin : int;
}

let create () =
  let decls = Array.of_list !catalogue in
  {
    decls;
    stats =
      Array.map (fun _ -> { calls = 0; self_ns = 0; self_hist = Hist.create () }) decls;
    s_stat = Array.make max_depth 0;
    s_id = Array.make max_depth 0;
    s_start = Array.make max_depth 0;
    s_child_ns = Array.make max_depth 0;
    s_record = Array.make max_depth None;
    depth = 0;
    next_id = 0;
    req = -1;
    sampled = false;
    records = Telemetry.Trace.create ();
    origin = now_ns ();
  }

let set_op t req =
  t.req <- req;
  t.sampled <- req mod sample_every = 0

let end_op t =
  t.req <- -1;
  t.sampled <- false

let seconds_since_origin t ns = float_of_int (ns - t.origin) /. 1e9

let leave t depth =
  let stop = now_ns () in
  let dur = stop - t.s_start.(depth) in
  let self = dur - t.s_child_ns.(depth) in
  let st = t.stats.(t.s_stat.(depth)) in
  st.calls <- st.calls + 1;
  st.self_ns <- st.self_ns + self;
  Hist.add st.self_hist self;
  if depth > 0 then t.s_child_ns.(depth - 1) <- t.s_child_ns.(depth - 1) + dur;
  t.depth <- depth;
  match t.s_record.(depth) with
  | None -> ()
  | Some sp ->
      t.s_record.(depth) <- None;
      Telemetry.Trace.finish sp ~now:(seconds_since_origin t stop)
        ~fields:
          [
            ("id", Telemetry.Trace.Int t.s_id.(depth));
            ("parent", Telemetry.Trace.Int (if depth > 0 then t.s_id.(depth - 1) else -1));
            ("req", Telemetry.Trace.Int t.req);
            ("self_us", Telemetry.Trace.Float (float_of_int self /. 1e3));
          ]
        ()

let span t (id : id) f =
  let depth = t.depth in
  if depth >= max_depth then invalid_arg "Tracer.span: spans nested too deep";
  t.depth <- depth + 1;
  t.s_stat.(depth) <- id;
  t.s_id.(depth) <- t.next_id;
  t.next_id <- t.next_id + 1;
  t.s_child_ns.(depth) <- 0;
  let d = t.decls.(id) in
  if d.d_keep || t.sampled then
    t.s_record.(depth) <-
      Some (Telemetry.Trace.span t.records ~now:(seconds_since_origin t (now_ns ())) d.d_name);
  t.s_start.(depth) <- now_ns ();
  match f () with
  | v ->
      leave t depth;
      v
  | exception e ->
      leave t depth;
      raise e

let stat t (id : id) = t.stats.(id)

(* Sum of self time over every span of [phase]: the share of that phase's
   wall clock the named layers account for. *)
let phase_self_ns t phase =
  let acc = ref 0 in
  Array.iteri (fun i d -> if d.d_phase = phase then acc := !acc + t.stats.(i).self_ns) t.decls;
  !acc

let to_jsonl t = Telemetry.Trace.to_jsonl t.records
