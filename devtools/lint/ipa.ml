(* Phase 2 of the whole-program analyzer: link the per-file summaries from
   Summary into a module-level call graph and run the four interprocedural
   passes over it:

   - rng-stream-provenance: stream labels must be unique per subsystem,
     Rng.t values crossing a library interface must carry an rng-stream
     annotation, and no lib/ function may draw from a captured (non-local)
     stream while being reachable from both a workload stream path and a
     fault/pathmon/prober stream path — the static form of the "attaching
     X never perturbs workload draws" invariant the RNG-isolation tests
     check dynamically.

   - hotpath-allocation: every allocating construct transitively reachable
     from a function annotated (* scion-lint: hotpath *) is reported with
     its call chain, so the allocation-free fast path is a ratchet (via the
     baseline) instead of a hope.

   - telemetry-registry: metric-name literals must be unique across
     modules, literal (never computed) in lib/, and in bijection with the
     checked-in devtools/lint/telemetry.registry.

   - dead-export: every value a lib/ interface exports must be referenced
     by some other module of the analyzed tree (tests never count), so the
     public surface is what the program actually uses.

   Everything here iterates lists in source order, never hash order, so
   lint output is deterministic. *)

let pass_ids = Lint.pass_rule_ids

let pass_docs =
  [
    ( "rng-stream-provenance",
      "Whole-program: duplicate Rng.of_label labels across subsystems, Rng.t values escaping \
       a lib/ interface without an rng-stream annotation, and captured-stream draws reachable \
       from both workload and fault/pathmon/prober stream paths (determinism race)." );
    ( "hotpath-allocation",
      "Whole-program: reports every allocating construct (closures, tuples/records/variants, \
       Bytes/string building, list append, boxed floats, partial applications) transitively \
       reachable from a (* scion-lint: hotpath *) seed, with the call chain. Adopt via the \
       --baseline ratchet; shrink the baseline, never grow it." );
    ( "telemetry-registry",
      "Whole-program: metric/series names must be string literals in lib/, unique across \
       modules, and exactly the set declared in devtools/lint/telemetry.registry — renaming a \
       series without updating the registry breaks the build, not the goldens." );
    ( "dead-export",
      "Whole-program: reports every val of a lib/ .mli that no other module in lib/, bin/, \
       bench/, examples/ or devtools/ references (test/ never counts). Opens, includes, \
       functor arguments and packed modules count as uses, so a report is never a false \
       positive. Delete the value, or drop it from the .mli when only its own module uses it." );
  ]

type entry = { e_fn : Summary.fn; e_file : string; e_subsystem : string }

type program = {
  entries : (string, entry) Hashtbl.t;  (* fn_key -> entry *)
  order : string list;  (* fn_keys in deterministic source order *)
  last2 : (string, string list) Hashtbl.t;  (* "Module.fn" -> fn_keys *)
  summaries : Summary.file_summary list;
  intfs : Summary.intf_summary list;
}

let finding ~file ~line ~rule ?(symbol = "") ?(chain = []) ?(detail = "") message =
  { Lint.file; line; col = 0; rule; severity = Lint.Error; message; pass = "link"; symbol;
    chain; detail }

(* ------------------------------------------------------------------ *)
(* Linking. *)

let last2_key comps =
  match List.rev comps with
  | a :: b :: _ -> b ^ "." ^ a
  | [ a ] -> a
  | [] -> ""

let link summaries intfs =
  let entries = Hashtbl.create 256 in
  let last2 = Hashtbl.create 256 in
  let order = ref [] in
  List.iter
    (fun (sm : Summary.file_summary) ->
      List.iter
        (fun (fn : Summary.fn) ->
          let e = { e_fn = fn; e_file = sm.Summary.sm_file; e_subsystem = sm.Summary.sm_subsystem } in
          if not (Hashtbl.mem entries fn.Summary.fn_key) then order := fn.Summary.fn_key :: !order;
          Hashtbl.replace entries fn.Summary.fn_key e;
          let k2 = last2_key (fn.Summary.fn_path @ [ fn.Summary.fn_name ]) in
          let existing = match Hashtbl.find_opt last2 k2 with Some l -> l | None -> [] in
          if not (List.mem fn.Summary.fn_key existing) then
            Hashtbl.replace last2 k2 (fn.Summary.fn_key :: existing))
        sm.Summary.sm_fns)
    summaries;
  { entries; order = List.rev !order; last2; summaries; intfs }

let is_suffix ~of_:l suffix =
  let n = List.length l and m = List.length suffix in
  n >= m
  &&
  let rec drop k = function xs when k = 0 -> xs | _ :: xs -> drop (k - 1) xs | [] -> [] in
  drop (n - m) l = suffix

(* Resolve a call-site path to defined functions. Unqualified names resolve
   only inside the caller's own module nesting; qualified names resolve
   tree-wide by suffix match on the last two components, accepting both
   directions of nesting ([Filter.check] matching [Science_dmz.Filter.check]
   and [Scion_dataplane.Router.process] matching [Router.process]). *)
let resolve p (caller : entry) comps =
  if comps = [] then []
  else begin
    let join l = String.concat "." l in
    let rec local prefix =
      let key = join (prefix @ comps) in
      if Hashtbl.mem p.entries key then Some key
      else
        match List.rev prefix with
        | [] -> None
        | _ :: shorter -> local (List.rev shorter)
    in
    match local caller.e_fn.Summary.fn_path with
    | Some k -> [ k ]
    | None ->
        if List.length comps < 2 then []
        else
          let cands =
            match Hashtbl.find_opt p.last2 (last2_key comps) with Some l -> l | None -> []
          in
          List.filter
            (fun k ->
              let kc = String.split_on_char '.' k in
              is_suffix ~of_:kc comps || is_suffix ~of_:comps kc)
            (List.sort String.compare cands)
  end

(* Breadth-first reachability from [seeds], recording one parent per node so
   diagnostics can show a call chain. Returns the parent map (seeds map to
   None). *)
let reach p seeds =
  let parent : (string, string option) Hashtbl.t = Hashtbl.create 64 in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if Hashtbl.mem p.entries s && not (Hashtbl.mem parent s) then begin
        Hashtbl.replace parent s None;
        Queue.add s q
      end)
    seeds;
  while not (Queue.is_empty q) do
    let k = Queue.pop q in
    match Hashtbl.find_opt p.entries k with
    | None -> ()
    | Some e ->
        List.iter
          (fun (c : Summary.call) ->
            List.iter
              (fun t ->
                if not (Hashtbl.mem parent t) then begin
                  Hashtbl.replace parent t (Some k);
                  Queue.add t q
                end)
              (resolve p e c.Summary.c_path))
          e.e_fn.Summary.fn_calls
  done;
  parent

let chain_of parent key =
  let rec up acc k =
    match Hashtbl.find_opt parent k with
    | Some (Some par) -> up (k :: acc) par
    | Some None -> k :: acc
    | None -> k :: acc
  in
  up [] key

let in_lib file = String.length file >= 4 && String.sub file 0 4 = "lib/"

(* ------------------------------------------------------------------ *)
(* Pass: hotpath-allocation. *)

let hotpath_pass p =
  let seeds =
    List.filter (fun k ->
        match Hashtbl.find_opt p.entries k with
        | Some e -> e.e_fn.Summary.fn_hotpath
        | None -> false)
      p.order
  in
  if seeds = [] then []
  else begin
    let parent = reach p seeds in
    let out = ref [] in
    List.iter
      (fun (sm : Summary.file_summary) ->
        if in_lib sm.Summary.sm_file then
          List.iter
            (fun (fn : Summary.fn) ->
              if fn.Summary.fn_is_fun && Hashtbl.mem parent fn.Summary.fn_key then begin
                let chain = chain_of parent fn.Summary.fn_key in
                List.iter
                  (fun (al : Summary.alloc) ->
                    out :=
                      finding ~file:sm.Summary.sm_file ~line:al.Summary.al_line
                        ~rule:"hotpath-allocation" ~symbol:fn.Summary.fn_key ~chain
                        ~detail:(Summary.kind_slug al.Summary.al_kind)
                        (Printf.sprintf "%s allocates (%s) on a hot path" al.Summary.al_what
                           (Summary.kind_slug al.Summary.al_kind))
                      :: !out)
                  fn.Summary.fn_allocs;
                (* Partial applications allocate a closure at the call site;
                   they are detectable only here, where arities are known. *)
                let self = Hashtbl.find_opt p.entries fn.Summary.fn_key in
                List.iter
                  (fun (c : Summary.call) ->
                    if c.Summary.c_args >= 0 then
                      match self with
                      | None -> ()
                      | Some caller -> (
                          match resolve p caller c.Summary.c_path with
                          | target :: _ -> (
                              match Hashtbl.find_opt p.entries target with
                              | Some te
                                when te.e_fn.Summary.fn_is_fun
                                     && te.e_fn.Summary.fn_arity > 0
                                     && c.Summary.c_args < te.e_fn.Summary.fn_arity ->
                                  out :=
                                    finding ~file:sm.Summary.sm_file ~line:c.Summary.c_line
                                      ~rule:"hotpath-allocation" ~symbol:fn.Summary.fn_key ~chain
                                      ~detail:(Summary.kind_slug Summary.Partial_apply)
                                      (Printf.sprintf
                                         "partial application of %s (%d of %d args) allocates a \
                                          closure on a hot path"
                                         target c.Summary.c_args te.e_fn.Summary.fn_arity)
                                    :: !out
                              | _ -> ())
                          | [] -> ()))
                  fn.Summary.fn_calls
              end)
            sm.Summary.sm_fns)
      p.summaries;
    List.rev !out
  end

(* ------------------------------------------------------------------ *)
(* Pass: rng-stream-provenance. *)

let infra_prefixes = [ "fault"; "pathmon"; "probe"; "prober"; "chaos" ]

let starts_with ~prefix s =
  let n = String.length prefix in
  String.length s >= n && String.sub s 0 n = prefix

let stream_class label =
  if List.exists (fun pfx -> starts_with ~prefix:pfx label) infra_prefixes then `Infra
  else `Workload

let rng_pass p =
  let out = ref [] in
  (* 1. The same stream label constructed by two distinct subsystems means
     two components believe they own the stream: their draw interleaving
     becomes load-dependent. *)
  let sites =
    List.concat_map
      (fun (sm : Summary.file_summary) ->
        List.concat_map
          (fun (fn : Summary.fn) ->
            List.filter_map
              (fun (st : Summary.stream_site) ->
                match st.Summary.st_label with
                | Some l -> Some (l, sm.Summary.sm_subsystem, sm.Summary.sm_file, st.Summary.st_line, fn.Summary.fn_key)
                | None -> None)
              fn.Summary.fn_streams)
          sm.Summary.sm_fns)
      p.summaries
  in
  let labels = List.sort_uniq String.compare (List.map (fun (l, _, _, _, _) -> l) sites) in
  List.iter
    (fun label ->
      let here = List.filter (fun (l, _, _, _, _) -> l = label) sites in
      let subsystems = List.sort_uniq String.compare (List.map (fun (_, s, _, _, _) -> s) here) in
      if List.length subsystems > 1 then
        List.iter
          (fun (_, subsystem, file, line, key) ->
            let other =
              List.find_opt (fun (_, s, _, _, _) -> s <> subsystem) here
            in
            match other with
            | Some (_, osub, ofile, oline, _) ->
                !out |> ignore;
                out :=
                  finding ~file ~line ~rule:"rng-stream-provenance" ~symbol:key ~detail:"dup-label"
                    (Printf.sprintf
                       "RNG stream label %S is also created by %s:%d (subsystem %s); distinct \
                        subsystems must use distinct labels so their draw streams stay independent"
                       label ofile oline osub)
                  :: !out
            | None -> ())
          here)
    labels;
  (* 2. A stream crossing a library interface must say which stream it is. *)
  List.iter
    (fun (im : Summary.intf_summary) ->
      if in_lib im.Summary.im_file && not (starts_with ~prefix:"lib/util/" im.Summary.im_file) then
        List.iter
          (fun (iv : Summary.intf_val) ->
            if iv.Summary.iv_stream = None then
              out :=
                finding ~file:im.Summary.im_file ~line:iv.Summary.iv_line
                  ~rule:"rng-stream-provenance" ~symbol:iv.Summary.iv_name ~detail:"unannotated-escape"
                  (Printf.sprintf
                     "val %s exposes a Scion_util.Rng.t across the library boundary without an \
                      annotation; add (* scion-lint%s rng-stream <name> *) naming the stream it \
                      draws from (e.g. caller, fault, pathmon.probe)"
                     iv.Summary.iv_name ":")
                :: !out)
          im.Summary.im_vals)
    p.intfs;
  (* 3. The determinism race: a function that draws from a stream it
     neither received nor created, reachable from both a workload stream
     hand-off and a fault/pathmon/prober stream hand-off, interleaves two
     supposedly independent streams. *)
  let roots cls =
    List.concat_map
      (fun (sm : Summary.file_summary) ->
        List.concat_map
          (fun (fn : Summary.fn) ->
            match Hashtbl.find_opt p.entries fn.Summary.fn_key with
            | None -> []
            | Some caller ->
                List.concat_map
                  (fun (label, callee) ->
                    if stream_class label = cls then resolve p caller callee else [])
                  fn.Summary.fn_stream_roots)
          sm.Summary.sm_fns)
      p.summaries
  in
  let workload = reach p (roots `Workload) in
  let infra = reach p (roots `Infra) in
  List.iter
    (fun (sm : Summary.file_summary) ->
      if in_lib sm.Summary.sm_file then
        List.iter
          (fun (fn : Summary.fn) ->
            if
              fn.Summary.fn_captured_draws <> []
              && Hashtbl.mem workload fn.Summary.fn_key
              && Hashtbl.mem infra fn.Summary.fn_key
            then
              List.iter
                (fun (draw, line) ->
                  out :=
                    finding ~file:sm.Summary.sm_file ~line ~rule:"rng-stream-provenance"
                      ~symbol:fn.Summary.fn_key
                      ~chain:(chain_of workload fn.Summary.fn_key)
                      ~detail:"stream-race"
                      (Printf.sprintf
                         "Rng.%s draws from a captured stream while %s is reachable from both a \
                          workload stream (%s) and a fault/pathmon/prober stream (%s); a shared \
                          sink makes draw order load-dependent — thread the stream as a parameter"
                         draw fn.Summary.fn_key
                         (String.concat " -> " (chain_of workload fn.Summary.fn_key))
                         (String.concat " -> " (chain_of infra fn.Summary.fn_key)))
                    :: !out)
                fn.Summary.fn_captured_draws)
          sm.Summary.sm_fns)
    p.summaries;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Pass: telemetry-registry. *)

let telemetry_pass p ~registry_file =
  let out = ref [] in
  let sites =
    List.concat_map
      (fun (sm : Summary.file_summary) ->
        List.concat_map
          (fun (fn : Summary.fn) ->
            List.map
              (fun (m : Summary.metric_site) -> (sm.Summary.sm_file, fn.Summary.fn_key, m))
              fn.Summary.fn_metrics)
          sm.Summary.sm_fns)
      p.summaries
  in
  (* Dynamic names in lib/ defeat the registry check. *)
  List.iter
    (fun (file, key, (m : Summary.metric_site)) ->
      if m.Summary.m_name = None && in_lib file then
        out :=
          finding ~file ~line:m.Summary.m_line ~rule:"telemetry-registry" ~symbol:key
            ~detail:"dynamic-name"
            (Printf.sprintf
               "metric name passed to Metrics.%s is not a string literal; series names must be \
                literals so the telemetry registry stays statically checkable"
               m.Summary.m_kind)
          :: !out)
    sites;
  let literal =
    List.filter_map
      (fun (file, key, (m : Summary.metric_site)) ->
        match m.Summary.m_name with
        | Some n -> Some (n, file, key, m.Summary.m_line)
        | None -> None)
      sites
  in
  (* Same series name from two modules silently merges their series. *)
  let names = List.sort_uniq String.compare (List.map (fun (n, _, _, _) -> n) literal) in
  List.iter
    (fun name ->
      let here = List.filter (fun (n, _, _, _) -> n = name) literal in
      let files = List.sort_uniq String.compare (List.map (fun (_, f, _, _) -> f) here) in
      if List.length files > 1 then
        List.iter
          (fun (_, file, key, line) ->
            match List.find_opt (fun f -> f <> file) files with
            | Some other ->
                out :=
                  finding ~file ~line ~rule:"telemetry-registry" ~symbol:key ~detail:"dup-name"
                    (Printf.sprintf
                       "telemetry series %S is also registered by %s; series names must be \
                        unique per module so snapshots attribute samples unambiguously"
                       name other)
                  :: !out
            | None -> ())
          here)
    names;
  (* The checked-in registry must list exactly the live names. *)
  (match registry_file with
  | None -> ()
  | Some (reg_path, declared) ->
      let declared_names = List.map fst declared in
      List.iter
        (fun name ->
          if not (List.mem name declared_names) then
            match List.find_opt (fun (n, _, _, _) -> n = name) literal with
            | Some (_, file, key, line) ->
                out :=
                  finding ~file ~line ~rule:"telemetry-registry" ~symbol:key ~detail:"unregistered"
                    (Printf.sprintf "telemetry series %S is not declared in %s; add it" name reg_path)
                  :: !out
            | None -> ())
        names;
      List.iter
        (fun (name, line) ->
          if not (List.mem name names) then
            out :=
              finding ~file:reg_path ~line ~rule:"telemetry-registry" ~detail:"stale-entry"
                (Printf.sprintf
                   "%s declares series %S but no module registers it; remove the entry (or \
                    restore the series — a rename must update both sides)"
                   reg_path name)
              :: !out)
        declared);
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Pass: dead-export. *)

(* Two paths name the same thing when one is a suffix of the other: a
   qualified reference may carry a library prefix the export lacks, or
   drop module prefixes an open or alias supplied. *)
let overlaps a b = a <> [] && b <> [] && (is_suffix ~of_:a b || is_suffix ~of_:b a)

let dead_export_pass p ~refs =
  let refs =
    List.filter (fun (r : Summary.file_refs) -> not (starts_with ~prefix:"test/" r.Summary.rf_file)) refs
  in
  (* Qualified references indexed by their last component, unqualified
     names by the opens of the file that mentions them. *)
  let qualified = Hashtbl.create 1024 and unqualified = Hashtbl.create 1024 in
  let push tbl k v = Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun (r : Summary.file_refs) ->
      List.iter
        (fun path ->
          match List.rev path with
          | [ name ] ->
              if r.Summary.rf_opens <> [] then push unqualified name (r.Summary.rf_file, r.Summary.rf_opens)
          | name :: _ -> push qualified name (r.Summary.rf_file, path)
          | [] -> ())
        r.Summary.rf_values)
    refs;
  let whole =
    List.concat_map (fun (r : Summary.file_refs) -> List.map (fun m -> (r.Summary.rf_file, m)) r.Summary.rf_whole) refs
    @ List.concat_map
        (fun (im : Summary.intf_summary) -> List.map (fun m -> (im.Summary.im_file, m)) im.Summary.im_whole)
        p.intfs
  in
  let out = ref [] in
  List.iter
    (fun (im : Summary.intf_summary) ->
      let file = im.Summary.im_file in
      if in_lib file then begin
        (* A module's own implementation never keeps its export alive. *)
        let own = Filename.remove_extension file ^ ".ml" in
        let others l = List.filter (fun (f, _) -> f <> own && f <> file) l in
        List.iter
          (fun (ex : Summary.export) ->
            let name = ex.Summary.ex_name and mpath = ex.Summary.ex_path in
            let find tbl = others (Option.value ~default:[] (Hashtbl.find_opt tbl name)) in
            let used =
              List.exists (fun (_, path) -> overlaps path (mpath @ [ name ])) (find qualified)
              || List.exists (fun (_, opens) -> List.exists (overlaps mpath) opens) (find unqualified)
              || List.exists (fun (_, m) -> overlaps mpath m) (others whole)
            in
            if not used then
              out :=
                finding ~file ~line:ex.Summary.ex_line ~rule:"dead-export"
                  ~symbol:(String.concat "." (mpath @ [ name ]))
                  (Printf.sprintf
                     "val %s is exported but nothing outside its module references it (tests do \
                      not count); delete it, or drop it from the interface if its own module \
                      still uses it"
                     (String.concat "." (mpath @ [ name ])))
                :: !out)
          im.Summary.im_exports
      end)
    p.intfs;
  List.rev !out

(* ------------------------------------------------------------------ *)

let run ~summaries ~intfs ~refs ~telemetry_registry =
  let p = link summaries intfs in
  rng_pass p @ hotpath_pass p @ telemetry_pass p ~registry_file:telemetry_registry
  @ dead_export_pass p ~refs

(* Series-name collection for --write-telemetry-registry. *)
let live_series summaries =
  List.sort_uniq String.compare
    (List.concat_map
       (fun (sm : Summary.file_summary) ->
         List.concat_map
           (fun (fn : Summary.fn) ->
             List.filter_map (fun (m : Summary.metric_site) -> m.Summary.m_name) fn.Summary.fn_metrics)
           sm.Summary.sm_fns)
       summaries)
