(* Open-loop workload: non-homogeneous Poisson arrivals (thinning against
   the diurnal peak rate), heavy-tailed Pareto flow sizes, and per-PoP
   diurnal load curves with phase offsets. Every draw comes from the
   stream handed to [attach] — conventionally [Rng.of_label seed
   "traffic"] — so attaching (or detaching) load leaves the fabric
   workload stream and every fault/pathmon stream byte-identical. *)

module Engine = Netsim.Engine
module Rng = Scion_util.Rng

type pop = { name : string; weight : float; phase_h : float }

type config = {
  base_rate_per_s : float;
  pareto_alpha : float;
  pareto_xm_bytes : float;
  max_flow_bytes : float;
  diurnal : float array;
  day_s : float;
}

let check_config c =
  let pos name v =
    if not (Float.is_finite v) || v <= 0.0 then
      invalid_arg (Printf.sprintf "Workload: %s must be finite and > 0 (got %g)" name v)
  in
  pos "base_rate_per_s" c.base_rate_per_s;
  pos "pareto_alpha" c.pareto_alpha;
  pos "pareto_xm_bytes" c.pareto_xm_bytes;
  pos "max_flow_bytes" c.max_flow_bytes;
  if c.max_flow_bytes < c.pareto_xm_bytes then
    invalid_arg "Workload: max_flow_bytes must be >= pareto_xm_bytes";
  pos "day_s" c.day_s;
  if Array.length c.diurnal = 0 then invalid_arg "Workload: diurnal curve must be non-empty";
  Array.iter
    (fun v ->
      if not (Float.is_finite v) || v < 0.0 then
        invalid_arg (Printf.sprintf "Workload: diurnal multipliers must be finite and >= 0 (got %g)" v))
    c.diurnal;
  if not (Array.exists (fun v -> v > 0.0) c.diurnal) then
    invalid_arg "Workload: diurnal curve must have a positive point"

(* A mild day shape (UTC-ish): overnight trough, business-hours plateau,
   evening peak — mean close to 1 so base_rate_per_s reads as the daily
   average arrival rate. *)
let default_diurnal =
  [|
    0.55; 0.45; 0.40; 0.40; 0.45; 0.55; 0.70; 0.90; 1.10; 1.25; 1.30; 1.30;
    1.25; 1.25; 1.30; 1.35; 1.40; 1.45; 1.40; 1.25; 1.05; 0.90; 0.75; 0.65;
  |]

let default_config =
  {
    base_rate_per_s = 4.0;
    pareto_alpha = 1.4;
    pareto_xm_bytes = 30_000.0;
    max_flow_bytes = 30_000_000.0;
    diurnal = default_diurnal;
    day_s = 86_400.0;
  }

let make_config ?(base_rate_per_s = default_config.base_rate_per_s)
    ?(pareto_xm_bytes = default_config.pareto_xm_bytes)
    ?(max_flow_bytes = default_config.max_flow_bytes) ?(day_s = default_config.day_s) () =
  let c = { default_config with base_rate_per_s; pareto_xm_bytes; max_flow_bytes; day_s } in
  check_config c;
  c

(* Piecewise-linear interpolation over the day curve, wrapping at both
   ends; [h] is a (possibly phase-shifted) hour-equivalent position. *)
let diurnal_at c h =
  let n = Array.length c.diurnal in
  let fn = float_of_int n in
  let h = Float.rem (Float.rem h fn +. fn) fn in
  let i = int_of_float h in
  let i = if i >= n then n - 1 else i in
  let frac = h -. float_of_int i in
  let a = c.diurnal.(i) and b = c.diurnal.((i + 1) mod n) in
  a +. ((b -. a) *. frac)

let diurnal_peak c = Array.fold_left Float.max 0.0 c.diurnal

(* Hour-equivalent position within the day of [now] seconds since the
   generator attached: the diurnal day starts at attach, so the arrival
   sequence is a pure function of (stream, config, pops, duration) no
   matter where on the engine clock the generator is attached. *)
let hours_at c now =
  let n = float_of_int (Array.length c.diurnal) in
  Float.rem now c.day_s /. c.day_s *. n

let pareto_size c rng =
  let u = Rng.float rng 1.0 in
  let raw = c.pareto_xm_bytes *. ((1.0 -. u) ** (-1.0 /. c.pareto_alpha)) in
  Float.min c.max_flow_bytes raw

type t = {
  config : config;
  pops : pop array;
  total_weight : float;
  until : float;
  mutable arrivals : int;
}

(* Instantaneous contribution of each PoP at time [now]:
   weight * diurnal(now + phase). The aggregate arrival rate is
   base_rate * sum(contributions) / sum(weights), which never exceeds the
   thinning envelope base_rate * peak. *)
let pop_weights_at t now scratch =
  let c = t.config in
  let sum = ref 0.0 in
  Array.iteri
    (fun i p ->
      let w = p.weight *. diurnal_at c (hours_at c now +. p.phase_h) in
      scratch.(i) <- w;
      sum := !sum +. w)
    t.pops;
  !sum

let pick_weighted rng scratch sum ~skip =
  (* Draw proportional to scratch weights, optionally excluding [skip]
     (redistributing its mass). Walk order is array order: deterministic. *)
  let sum = match skip with None -> sum | Some i -> sum -. scratch.(i) in
  let u = Rng.float rng sum in
  let acc = ref 0.0 in
  let chosen = ref (-1) in
  Array.iteri
    (fun i w ->
      if !chosen < 0 && (match skip with Some s -> i <> s | None -> true) then begin
        acc := !acc +. w;
        if u < !acc then chosen := i
      end)
    scratch;
  if !chosen >= 0 then !chosen
  else
    (* Float summation slack on the last candidate: take the final
       eligible index. *)
    let last = ref 0 in
    Array.iteri
      (fun i _ -> match skip with Some s when i = s -> () | _ -> last := i)
      scratch;
    !last

let attach ~engine ~rng ?(config = default_config) ~pops ~duration_s ~sink () =
  check_config config;
  if List.length pops < 2 then invalid_arg "Workload.attach: need at least two PoPs";
  List.iter
    (fun p ->
      if not (Float.is_finite p.weight) || p.weight <= 0.0 then
        invalid_arg (Printf.sprintf "Workload.attach: PoP %s weight must be finite and > 0" p.name);
      if not (Float.is_finite p.phase_h) then
        invalid_arg (Printf.sprintf "Workload.attach: PoP %s phase must be finite" p.name))
    pops;
  if not (Float.is_finite duration_s) || duration_s <= 0.0 then
    invalid_arg (Printf.sprintf "Workload.attach: duration_s must be finite and > 0 (got %g)" duration_s);
  let pops = Array.of_list pops in
  let total_weight = Array.fold_left (fun acc p -> acc +. p.weight) 0.0 pops in
  let start = Engine.now engine in
  let t =
    { config; pops; total_weight; until = start +. duration_s; arrivals = 0 }
  in
  let peak_rate = config.base_rate_per_s *. diurnal_peak config in
  let scratch = Array.make (Array.length pops) 0.0 in
  (* Thinning: candidate points at the peak rate, each accepted with
     probability rate(t)/peak. Draw order per candidate is fixed — gap,
     accept, then (src, dst, size) only when accepted — so the stream is
     a pure function of (seed, config, pops, duration). *)
  let rec arm time =
    let gap = Rng.exponential rng ~rate:peak_rate in
    let time = time +. gap in
    if time <= t.until then
      Engine.schedule_at engine ~time (fun () ->
          let sum = pop_weights_at t (time -. start) scratch in
          let rate = config.base_rate_per_s *. sum /. t.total_weight in
          let accept = Rng.float rng 1.0 < rate /. peak_rate in
          if accept then begin
            let src = pick_weighted rng scratch sum ~skip:None in
            let dst = pick_weighted rng scratch sum ~skip:(Some src) in
            let size = pareto_size config rng in
            t.arrivals <- t.arrivals + 1;
            sink ~now:time ~src:t.pops.(src) ~dst:t.pops.(dst) ~size_bytes:size
          end;
          arm time)
  in
  arm start;
  t

let arrivals t = t.arrivals
