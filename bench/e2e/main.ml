(* The end-to-end simulator benchmark.

   Usage (from the repository root):
     bench/e2e/main.exe --workload NAME --seed N --seconds S --trace 0|1
                        [--quick] [--trace-out FILE]
     bench/e2e/main.exe --all [--seed N] [--seconds S] [--trace 0|1] [--quick]
     bench/e2e/main.exe repeat --sets N [--seconds S] [--out FILE]
     bench/e2e/main.exe check [--benchmark FILE]

   One workload runs in one process. The last line of its standard output
   is a JSON object with the keys correct, attempted, failed and metrics:
   the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
   metrics with --trace 1. [--all], [repeat] and [check] run every
   workload in a fresh child process of this executable, so the signature
   cache and the GC heap never leak between workloads. *)

module W = Workloads
module Json = Telemetry.Json

let word_bytes = Sys.word_size / 8

(* --- One workload ------------------------------------------------------------ *)

type loop = { wall_ns : int; passes : int; ops : int }

(* Passes until the budget is spent (or [quick_passes] passes). Pass 0
   feeds the digest; [after_pass0] runs once it ends and is kept out of
   the measured wall time. *)
let run_loop (inst : W.instance) (o : W.ops) ~next_pass ~budget_ns ~quick_passes ~after_pass0 =
  let t0 = Tracer.now_ns () in
  let ops0 = o.W.attempted in
  let passes = ref 0 in
  let excluded = ref 0 in
  let more () =
    match quick_passes with
    | Some q -> !passes < q
    | None -> !passes = 0 || Tracer.now_ns () - t0 < budget_ns
  in
  while more () do
    let i = !next_pass in
    o.W.digesting <- i = 0;
    inst.W.pass i;
    o.W.digesting <- false;
    if i = 0 then begin
      let t = Tracer.now_ns () in
      after_pass0 ();
      excluded := !excluded + (Tracer.now_ns () - t)
    end;
    incr next_pass;
    incr passes
  done;
  { wall_ns = Tracer.now_ns () - t0 - !excluded; passes = !passes; ops = o.W.attempted - ops0 }

let ratio num den = if Float.equal den 0.0 then 0.0 else num /. den
let pct num den = 100.0 *. ratio num den

(* Quartiles as Python's statistics.quantiles(values, n=4) computes them
   (the default exclusive method). *)
let quartiles values =
  let d = Array.of_list values in
  Array.sort compare d;
  let n = Array.length d in
  if n = 0 then (0.0, 0.0, 0.0)
  else if n = 1 then (d.(0), d.(0), d.(0))
  else begin
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)
  end

type metric = string * string * float (* name, unit, value *)

let span_metrics tracer ~phase_wall_ns : metric list =
  List.concat
    (List.mapi
       (fun id (d : Tracer.decl) ->
         let st = Tracer.stat tracer id in
         [
           (d.Tracer.d_name ^ ".calls", "count", float_of_int st.Tracer.calls);
           (d.Tracer.d_name ^ ".self_us", "us", Hist.quantile st.Tracer.self_hist 0.5 /. 1e3);
           ( d.Tracer.d_name ^ ".share_pct",
             "%",
             pct (float_of_int st.Tracer.self_ns) (float_of_int (phase_wall_ns d.Tracer.d_phase)) );
         ])
       (Tracer.declared ()))

let layer_metrics ~(c : W.counts) ~traced ~untraced ~minor_words ~major ~overhead_pct
    ~coverage_pct : metric list =
  let f = float_of_int in
  let n k = f (W.count c k) in
  let ops = f traced.ops in
  [
    ("controlplane.mesh.beacon_sends_per_round", "count", ratio (n "beacon_sends") (n "rebeacons"));
    ("controlplane.mesh.rebeacons_per_kop", "1/kop", 1000.0 *. ratio (n "rebeacons") ops);
    ("controlplane.sigcache.misses_per_round", "count", ratio (n "sig_misses") (n "rebeacons"));
    ("controlplane.sigcache.hit_pct", "%", pct (n "sig_hits") (n "sig_hits" +. n "sig_misses"));
    ( "controlplane.combinator.memo_hit_pct",
      "%",
      pct (n "memo_hits") (n "memo_hits" +. n "memo_misses") );
    ("dataplane.router.hops_per_pkt", "count", ratio (n "router_forwarded") (n "packets"));
    ("netsim.engine.events_per_op", "count", ratio (n "engine_events") ops);
    ("traffic.flow.completed_per_pass", "count", ratio (n "flows_completed") (f traced.passes));
    ( "traffic.flow.rejected_pct",
      "%",
      pct (n "flows_rejected") (n "flows_started" +. n "flows_rejected") );
    ("traffic.flow.peak_active", "count", n "flows_active_peak");
    ("netsim.net.queue_drop_pct", "%", pct (n "fg_queue_drops") (n "fg_sent"));
    ("runtime.gc.minor_words_per_op", "words", ratio minor_words (f untraced.ops));
    ("runtime.gc.major_collections_per_kop", "1/kop", 1000.0 *. ratio major (f untraced.ops));
    ("trace.overhead_pct", "%", overhead_pct);
    ("trace.coverage_pct", "%", coverage_pct);
  ]

let print_result ~correct ~attempted ~failed (metrics : metric list) =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (Json.float_repr v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body

let run_workload (spec : W.spec) ~seed ~seconds ~trace ~quick ~trace_out =
  let o = W.new_ops () in
  let tracer = if trace then Some (Tracer.create ()) else None in
  o.W.tracer <- tracer;
  (* Set-up, repeated for a median. Each build starts from a cold
     signature cache (the set-up clears it) and a compacted heap that no
     longer holds the previous build. *)
  let current = ref None in
  let setup_ns =
    List.init (if quick then 1 else spec.W.setups) (fun _ ->
        current := None;
        Gc.compact ();
        let inst = spec.W.make ~quick ~seed o in
        let t0 = Tracer.now_ns () in
        inst.W.setup ();
        let dt = Tracer.now_ns () - t0 in
        current := Some inst;
        dt)
  in
  let inst = W.get "setup" !current in
  let setup_s = List.map (fun ns -> float_of_int ns /. 1e9) setup_ns in
  let _, setup_median, _ = quartiles setup_s in
  let next_pass = ref 0 in
  let quick_passes = if quick then Some spec.W.quick_passes else None in
  let seconds_ns = int_of_float (seconds *. 1e9) in
  (* After pass 0: its counts, and the live heap once the working set is
     built. Measured there rather than at the end so that where a run
     stops (how fast it went) does not change the figure. *)
  let c_start = inst.W.counts () in
  let counts0 = ref [] in
  let heap_mb = ref 0.0 in
  let after_pass0 () =
    counts0 := W.diff (inst.W.counts ()) c_start;
    if not trace then begin
      Gc.full_major ();
      heap_mb := float_of_int ((Gc.stat ()).Gc.live_words * word_bytes) /. 1e6
    end
  in
  let loop ~budget_ns = run_loop inst o ~next_pass ~budget_ns ~quick_passes ~after_pass0 in
  let gc_loop ~budget_ns =
    let g0 = Gc.quick_stat () in
    let l = loop ~budget_ns in
    let g1 = Gc.quick_stat () in
    (l, g1.Gc.minor_words -. g0.Gc.minor_words, float_of_int (g1.Gc.major_collections - g0.Gc.major_collections))
  in
  let metrics, loops =
    match tracer with
    | None ->
        let l = loop ~budget_ns:seconds_ns in
        ( [
            ("setup_s", "s", setup_median);
            ("live_heap_mb", "MB", !heap_mb);
            ("op_p50_us", "us", Hist.quantile o.W.hist 0.5 /. 1e3);
            ("op_p90_us", "us", Hist.quantile o.W.hist 0.9 /. 1e3);
            ("ops_per_s", "1/s", ratio (float_of_int l.ops) (float_of_int l.wall_ns /. 1e9));
          ],
          [ l ] )
    | Some t ->
        (* Traced half first, so pass 0 (the digest) runs through the
           span-wrapped calls and the hop-by-hop replay; then the same
           loop untraced, for the overhead and the GC figures. *)
        let traced = loop ~budget_ns:(seconds_ns / 2) in
        let c = W.diff (inst.W.counts ()) c_start in
        o.W.tracer <- None;
        Hist.clear o.W.hist;
        let untraced, minor_words, major = gc_loop ~budget_ns:(seconds_ns / 2) in
        o.W.tracer <- tracer;
        let p0 = Tracer.now_ns () in
        inst.W.post ();
        let post_ns = Tracer.now_ns () - p0 in
        let per_op l = ratio (float_of_int l.wall_ns) (float_of_int l.ops) in
        let phase_wall_ns = function
          | Tracer.Setup -> List.fold_left ( + ) 0 setup_ns
          | Tracer.Loop -> traced.wall_ns
          | Tracer.Post -> post_ns
        in
        ( ("op_p99_us", "us", Hist.quantile o.W.hist 0.99 /. 1e3)
          :: layer_metrics ~c ~traced ~untraced ~minor_words ~major
            ~overhead_pct:(100.0 *. (ratio (per_op traced) (per_op untraced) -. 1.0))
            ~coverage_pct:(pct (float_of_int (Tracer.phase_self_ns t Tracer.Loop)) (float_of_int traced.wall_ns))
          @ span_metrics t ~phase_wall_ns,
          [ traced; untraced ] )
  in
  (match trace_out, tracer with
  | Some path, Some t -> Out_channel.with_open_bin path (fun oc -> output_string oc (Tracer.to_jsonl t))
  | Some _, None | None, _ -> ());
  Printf.printf "# workload %s seed %Ld trace %d%s\n" spec.W.name seed (if trace then 1 else 0)
    (if quick then " quick" else "");
  Printf.printf "# setup_s %s\n" (String.concat " " (List.map (Printf.sprintf "%.4f") setup_s));
  List.iter
    (fun l ->
      Printf.printf "# loop %d passes, %d ops in %.3f s\n" l.passes l.ops (float_of_int l.wall_ns /. 1e9))
    loops;
  if not trace then
    Printf.printf "# op latency us: p50 %.3f p90 %.3f p99 %.3f p99.9 %.3f (%d ops)\n"
      (Hist.quantile o.W.hist 0.5 /. 1e3) (Hist.quantile o.W.hist 0.9 /. 1e3)
      (Hist.quantile o.W.hist 0.99 /. 1e3) (Hist.quantile o.W.hist 0.999 /. 1e3)
      (Hist.count o.W.hist);
  Option.iter (Printf.printf "# first failure: %s\n") o.W.first_error;
  Printf.printf "digest %016x\n" o.W.digest;
  Printf.printf "counts {%s}\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) !counts0));
  print_result ~correct:(o.W.failed = 0) ~attempted:o.W.attempted ~failed:o.W.failed metrics

(* --- Child processes ------------------------------------------------------- *)

type child = {
  ok : bool;  (** Exited 0. *)
  output : string;
  result : Json.t option;  (** The last line, parsed. *)
  digest : string option;
  counts : string option;
}

let line_with prefix lines =
  List.find_map
    (fun l ->
      let n = String.length prefix in
      if String.length l >= n && String.sub l 0 n = prefix then Some (String.sub l n (String.length l - n))
      else None)
    lines

let run_child args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let output = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' output) in
  let result =
    match List.rev lines with
    | last :: _ -> ( match Json.parse last with Ok j -> Some j | Error _ -> None)
    | [] -> None
  in
  {
    ok = status = Unix.WEXITED 0;
    output;
    result;
    digest = line_with "digest " lines;
    counts = line_with "counts " lines;
  }

let workload_args ~name ~seed ~seconds ~trace ~quick =
  [ "--workload"; name; "--seed"; Int64.to_string seed; "--seconds"; seconds; "--trace"; trace ]
  @ if quick then [ "--quick" ] else []

let metric_values (j : Json.t) =
  match Json.member "metrics" j with
  | Some (Json.Obj fields) ->
      List.filter_map
        (fun (name, v) ->
          match Option.bind (Json.member "value" v) Json.to_num_opt with
          | Some x -> Some (name, x)
          | None -> None)
        fields
  | Some _ | None -> []

let int_member key j =
  match Option.bind (Json.member key j) Json.to_num_opt with Some x -> int_of_float x | None -> -1

let correct j = match Json.member "correct" j with Some (Json.Bool b) -> b | Some _ | None -> false

let run_all ~seed ~seconds ~trace ~quick =
  let failures =
    List.fold_left
      (fun acc (spec : W.spec) ->
        let c = run_child (workload_args ~name:spec.W.name ~seed ~seconds ~trace ~quick) in
        print_string c.output;
        match c.result with Some j when c.ok && correct j -> acc | Some _ | None -> acc + 1)
      0 W.all
  in
  if failures > 0 then exit 1

(* --- repeat: spread and host record ----------------------------------------- *)

let command_line prog args =
  match Unix.open_process_args_in prog (Array.of_list (prog :: args)) with
  | ic ->
      let out = String.trim (In_channel.input_all ic) in
      ignore (Unix.close_process_in ic);
      out
  | exception Unix.Unix_error _ -> "unknown"

let host_note () =
  (* scion-lint: allow determinism -- the date of a benchmark record, not simulated time *)
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  [
    ("nproc", command_line "nproc" []);
    ("ocaml", Sys.ocaml_version);
    ("kernel", command_line "uname" [ "-r" ]);
    ("date", Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday);
    ("ocamlrunparam", Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"));
  ]

let repeat ~sets ~seconds ~out =
  (* (workload, metric) -> values in run order *)
  let values = Hashtbl.create 64 in
  for s = 0 to sets - 1 do
    let order = if s mod 2 = 0 then W.all else List.rev W.all in
    List.iter
      (fun (spec : W.spec) ->
        let c =
          run_child
            (workload_args ~name:spec.W.name ~seed:(Int64.of_int (s + 1)) ~seconds ~trace:"0" ~quick:false)
        in
        match c.result with
        | Some j when c.ok && correct j ->
            List.iter
              (fun (m, v) ->
                let key = (spec.W.name, m) in
                Hashtbl.replace values key (Scion_util.Table.find_or ~default:[] values key @ [ v ]))
              (metric_values j);
            Printf.printf "set %d %s: ok\n%!" (s + 1) spec.W.name
        | Some _ | None ->
            print_string c.output;
            Printf.printf "set %d %s: FAILED\n%!" (s + 1) spec.W.name;
            exit 1)
      order
  done;
  let entry (name, m) =
    let vs = Scion_util.Table.find_or ~default:[] values (name, m) in
    let q1, med, q3 = quartiles vs in
    let stable = List.for_all (fun v -> Float.abs (v -. med) <= 0.1 *. Float.abs med) vs in
    if not stable then Printf.printf "UNSTABLE %s %s: a run left +-10%% of the median\n" name m;
    Printf.sprintf "      \"%s\": {\"median\": %s, \"q1\": %s, \"q3\": %s, \"n\": %d, \"spread\": %s, \"stable\": %b}"
      m (Json.float_repr med) (Json.float_repr q1) (Json.float_repr q3) (List.length vs)
      (Json.float_repr (ratio (q3 -. q1) med))
      stable
  in
  let metric_names name =
    List.sort_uniq compare
      (Hashtbl.fold (fun (w, m) _ acc -> if String.equal w name then m :: acc else acc) values [])
  in
  let workloads =
    List.map
      (fun (spec : W.spec) ->
        Printf.sprintf "    \"%s\": {\n%s\n    }" spec.W.name
          (String.concat ",\n" (List.map (fun m -> entry (spec.W.name, m)) (metric_names spec.W.name))))
      W.all
  in
  let host =
    String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": \"%s\"" k (Json.escape v)) (host_note ()))
  in
  let doc =
    Printf.sprintf "{\n  \"host\": {%s},\n  \"sets\": %d,\n  \"seconds\": %s,\n  \"workloads\": {\n%s\n  }\n}\n"
      host sets seconds (String.concat ",\n" workloads)
  in
  Out_channel.with_open_bin out (fun oc -> output_string oc doc);
  Printf.printf "wrote %s\n" out

(* --- check: the CI guard ------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let names_of key j =
  match Json.member key j with
  | Some (Json.Arr items) ->
      List.sort_uniq compare
        (List.filter_map (fun i -> Option.bind (Json.member "name" i) Json.to_string_opt) items)
  | Some _ | None -> []

(* Every workload at --quick scale: it must pass its checks, print exactly
   BENCHMARK.json's metric names, reproduce its digest and pass-0 counts
   under tracing (which replays forwarding hop by hop), and change its
   digest with the seed. *)
let check ~benchmark =
  let bench =
    match Json.parse (read_file benchmark) with
    | Ok j -> j
    | Error e -> failwith (Printf.sprintf "check: cannot parse %s: %s" benchmark e)
  in
  let failures = ref 0 in
  let expect what ok =
    if not ok then begin
      incr failures;
      Printf.printf "  FAIL %s\n%!" what
    end
  in
  expect "workload names match BENCHMARK.json"
    (names_of "workloads" bench = List.sort compare (List.map (fun (s : W.spec) -> s.W.name) W.all));
  List.iter
    (fun (spec : W.spec) ->
      let name = spec.W.name in
      let child ~seed ~trace = run_child (workload_args ~name ~seed ~seconds:"1" ~trace ~quick:true) in
      let a = child ~seed:1L ~trace:"0" in
      let b = child ~seed:1L ~trace:"1" in
      let c = child ~seed:2L ~trace:"0" in
      List.iter
        (fun (label, (r : child), key) ->
          match r.result with
          | Some j when r.ok ->
              expect (Printf.sprintf "%s %s: correct, no failed op" name label)
                (correct j && int_member "failed" j = 0 && int_member "attempted" j > 0);
              expect (Printf.sprintf "%s %s: metric names match BENCHMARK.json %s" name label key)
                (List.sort compare (List.map fst (metric_values j)) = names_of key bench)
          | Some _ | None ->
              print_string r.output;
              expect (Printf.sprintf "%s %s: run completed" name label) false)
        [ ("seed 1", a, "end_to_end"); ("seed 1 traced", b, "per_layer"); ("seed 2", c, "end_to_end") ];
      expect (name ^ ": same seed, same digest (traced and untraced)") (a.digest = b.digest && a.digest <> None);
      expect (name ^ ": same seed, same pass-0 counts") (a.counts = b.counts && a.counts <> None);
      expect (name ^ ": another seed changes the digest") (a.digest <> c.digest);
      Printf.printf "%s: digest %s\n%!" name (Option.value ~default:"-" a.digest))
    W.all;
  if !failures > 0 then begin
    Printf.printf "\nbench-e2e check: %d failure(s)\n" !failures;
    exit 1
  end
  else Printf.printf "\nbench-e2e check: all workloads pass\n"

(* --- Command line --------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--trace-out FILE]\n\
    \       main.exe --all [--seed N] [--seconds S] [--trace 0|1] [--quick]\n\
    \       main.exe repeat --sets N [--seconds S] [--out FILE]\n\
    \       main.exe check [--benchmark FILE]";
  exit 2

let () =
  let args = match Array.to_list Sys.argv with [] -> [] | _ :: rest -> rest in
  let rec opts acc = function
    | ("--quick" | "--all") as flag :: rest -> opts ((flag, "") :: acc) rest
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        opts ((key, value) :: acc) rest
    | [] -> acc
    | other :: _ ->
        Printf.eprintf "unexpected argument %S\n" other;
        usage ()
  in
  let command, rest =
    match args with ("repeat" | "check") as c :: rest -> (c, rest) | rest -> ("run", rest)
  in
  let o = opts [] rest in
  let get key default = Option.value ~default (List.assoc_opt key o) in
  let num key default parse =
    match parse (get key default) with
    | Some v -> v
    | None ->
        Printf.eprintf "bad value for %s\n" key;
        usage ()
  in
  let seed = num "--seed" "1" Int64.of_string_opt in
  let seconds = get "--seconds" "15" in
  let seconds_f = num "--seconds" "15" float_of_string_opt in
  let trace =
    match get "--trace" "0" with
    | "0" -> false
    | "1" -> true
    | _ ->
        prerr_endline "--trace takes 0 or 1";
        usage ()
  in
  let quick = List.mem_assoc "--quick" o in
  match command with
  | "repeat" -> repeat ~sets:(num "--sets" "5" int_of_string_opt) ~seconds ~out:(get "--out" "bench/e2e/baseline.json")
  | "check" -> check ~benchmark:(get "--benchmark" "BENCHMARK.json")
  | _ when List.mem_assoc "--all" o -> run_all ~seed ~seconds ~trace:(get "--trace" "0") ~quick
  | _ -> (
      match Option.bind (List.assoc_opt "--workload" o) W.find with
      | Some spec ->
          if seconds_f <= 0.0 then usage ();
          run_workload spec ~seed ~seconds:seconds_f ~trace ~quick ~trace_out:(List.assoc_opt "--trace-out" o)
      | None ->
          Printf.eprintf "unknown or missing --workload; one of: %s\n"
            (String.concat ", " (List.map (fun (s : W.spec) -> s.W.name) W.all));
          exit 2)
