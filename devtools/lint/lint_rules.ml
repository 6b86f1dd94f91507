(* The scion-lint rules. Each is a [Lint.rule]; the engine runs every
   rule whose [scope] accepts the (repo-relative) file being linted.

   The invariants enforced here are the ones the SCIERA reproduction's
   evaluation depends on: the discrete-event simulation must be bit-for-bit
   reproducible from its seed, so no wall-clock reads, no ambient
   randomness, no hash-order-dependent iteration in simulation-visible
   code, and no partial functions that can crash an experiment half-way
   through the measurement window. *)

open Lint

let in_dir prefix file =
  let n = String.length prefix in
  String.length file > n && String.sub file 0 n = prefix

(* ------------------------------------------------------------------ *)
(* R1: determinism. *)

let nondet_clock = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]

let hash_order_idents =
  [ "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys"; "Hashtbl.to_seq_values" ]

let determinism =
  {
    no_hooks with
    id = "determinism";
    severity = Error;
    doc =
      "Bans wall-clock reads (Unix.gettimeofday, Unix.time, Sys.time) and ambient randomness \
       (Random.*) everywhere, and hash-order-dependent iteration (Hashtbl.iter/fold/to_seq*) \
       inside lib/ where iteration order can leak into event scheduling or experiment output. \
       Use simulated time, Scion_util.Rng, and Scion_util.Table.iter_sorted/fold_sorted.";
    (* Scion_util.Rng is the one sanctioned randomness source. *)
    scope = (fun file -> file <> "lib/util/rng.ml");
    on_expr =
      Some
        (fun ctx emit e ->
          match e.pexp_desc with
          | Pexp_ident { txt; loc } -> (
              let name = dotted txt in
              if List.mem name nondet_clock then
                emit loc
                  (Printf.sprintf
                     "%s reads the wall clock and breaks simulation reproducibility; thread the \
                      simulated time (Netsim.Engine.now) instead"
                     name)
              else
                match flatten_longident txt with
                | "Random" :: _ :: _ ->
                    emit loc
                      (name
                       ^ " is ambient, unseeded randomness; draw from an explicitly seeded \
                          Scion_util.Rng.t so runs are reproducible")
                | _ ->
                    if List.mem name hash_order_idents && in_dir "lib/" ctx.file then
                      emit loc
                        (name
                         ^ " visits bindings in nondeterministic hash order; use \
                            Scion_util.Table.iter_sorted / fold_sorted (or sort the keys first)"))
          | _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* R2: totality. *)

let partial_fns =
  [
    ("List.hd", "pattern-match on the list (or use a guarded match with a clear error)");
    ("List.tl", "pattern-match on the list (or use a guarded match with a clear error)");
    ("Option.get", "pattern-match, or use Option.value ~default");
    ("Hashtbl.find", "use Hashtbl.find_opt, Scion_util.Table.find_or ~default, or match with a clear error");
  ]

let totality =
  {
    no_hooks with
    id = "totality";
    severity = Error;
    doc =
      "Flags partial functions (List.hd, List.tl, Option.get, Hashtbl.find) that raise on \
       empty/missing input; prefer the _opt variants or an explicit pattern match so failures \
       carry a useful error instead of crashing an experiment mid-run.";
    on_expr =
      Some
        (fun _ctx emit e ->
          match e.pexp_desc with
          | Pexp_ident { txt; loc } -> (
              match List.assoc_opt (dotted txt) partial_fns with
              | Some hint -> emit loc (Printf.sprintf "%s is partial; %s" (dotted txt) hint)
              | None -> ())
          | _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* R3: exception hygiene. *)

let exception_hygiene =
  {
    no_hooks with
    id = "catch-all-exn";
    severity = Error;
    doc =
      "Flags catch-all exception handlers ('with _ ->', 'exception _ ->') that silently \
       swallow every failure, including programming errors; match the specific exceptions you \
       expect, or bind and re-raise.";
    on_expr =
      Some
        (fun _ctx emit e ->
          let flag_case (c : Parsetree.case) =
            match (c.pc_lhs.ppat_desc, c.pc_guard) with
            | Ppat_any, None ->
                emit c.pc_lhs.ppat_loc
                  "catch-all 'with _ ->' swallows every exception (including bugs); match the \
                   specific exceptions you expect, or bind the exception and re-raise"
            | _ -> ()
          in
          match e.pexp_desc with
          | Pexp_try (_, cases) -> List.iter flag_case cases
          | Pexp_match (_, cases) ->
              List.iter
                (fun (c : Parsetree.case) ->
                  match (c.pc_lhs.ppat_desc, c.pc_guard) with
                  | Ppat_exception { ppat_desc = Ppat_any; ppat_loc; _ }, None ->
                      emit ppat_loc
                        "catch-all 'exception _ ->' swallows every exception (including bugs); \
                         match the specific exceptions you expect"
                  | _ -> ())
                cases
          | _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* R4: float discipline. *)

let float_arith = [ "+."; "-."; "*."; "/."; "**" ]

let floatish_name last =
  let has_suffix s suf =
    let n = String.length s and m = String.length suf in
    n >= m && String.sub s (n - m) m = suf
  in
  List.mem last [ "time"; "now"; "rtt"; "day"; "expiry"; "timestamp"; "deadline"; "latency"; "jitter" ]
  || List.exists (has_suffix last) [ "_s"; "_ms"; "_time"; "_rtt"; "_day"; "_expiry" ]

let floatish (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match flatten_longident txt with
      | [ op ] -> List.mem op float_arith
      | "Float" :: _ -> true
      | _ -> false)
  | Pexp_field (_, { txt; _ }) -> (
      match List.rev (flatten_longident txt) with last :: _ -> floatish_name last | [] -> false)
  | Pexp_ident { txt = Longident.Lident name; _ } -> floatish_name name
  | _ -> false

let float_discipline =
  {
    no_hooks with
    id = "float-eq";
    severity = Warn;
    doc =
      "Flags polymorphic =/<> where an operand is syntactically a float (float literal, float \
       arithmetic, Float.* call, or a field/variable named like a simulated time: time, now, \
       day, rtt, *_s, *_ms, ...). Exact float equality on simulated time is usually a bug; \
       compare with an epsilon, or use Float.equal to make exact intent explicit.";
    on_expr =
      Some
        (fun _ctx emit e ->
          match e.pexp_desc with
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); _ }; _ },
                [ (Nolabel, a); (Nolabel, b) ] )
            when floatish a || floatish b ->
              emit e.pexp_loc
                (Printf.sprintf
                   "polymorphic %s on a float-typed operand; exact float equality on simulated \
                    time is fragile — compare with an epsilon, or use Float.equal to make exact \
                    intent explicit"
                   op)
          | _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* R5: interface coverage. *)

let interface_coverage =
  {
    no_hooks with
    id = "missing-mli";
    severity = Error;
    doc =
      "Every module under lib/ must have a corresponding .mli: interfaces are where invariants \
       get documented, and they keep the simulator's internal mutation out of reach of the \
       experiment code.";
    on_tree =
      Some
        (fun ~files emit ->
          List.iter
            (fun f ->
              if in_dir "lib/" f && Filename.check_suffix f ".ml" then
                let mli = f ^ "i" in
                if not (List.mem mli files) then
                  emit ~file:f ~line:1
                    (Printf.sprintf "module %s has no interface; add %s"
                       (String.capitalize_ascii (Filename.remove_extension (Filename.basename f)))
                       mli))
            files);
  }

(* ------------------------------------------------------------------ *)
(* R6: ignored results. *)

let result_call ctx (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) when registry_mem ctx.registry txt ->
      Some (dotted txt)
  | Pexp_construct ({ txt = Longident.Lident (("Ok" | "Error") as c); _ }, Some _) -> Some c
  | _ -> None

let ignored_result =
  {
    no_hooks with
    id = "ignored-result";
    severity = Error;
    doc =
      "Flags 'ignore (...)' and 'let _ = ...' applied to an expression whose declared type is a \
       result (per the tree's .mli files): discarding a result discards the error path. Match \
       on Ok/Error, or log the Error explicitly.";
    on_expr =
      Some
        (fun ctx emit e ->
          match e.pexp_desc with
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Longident.Lident "ignore"; _ }; _ },
                [ (Nolabel, arg) ] ) -> (
              match result_call ctx arg with
              | Some name ->
                  emit e.pexp_loc
                    (Printf.sprintf
                       "ignore discards the result (and its error path) of %s; match on \
                        Ok/Error instead"
                       name)
              | None -> ())
          | _ -> ());
    on_value_binding =
      Some
        (fun ctx emit (vb : Parsetree.value_binding) ->
          match vb.pvb_pat.ppat_desc with
          | Ppat_any -> (
              match result_call ctx vb.pvb_expr with
              | Some name ->
                  emit vb.pvb_pat.ppat_loc
                    (Printf.sprintf
                       "'let _ =' discards the result (and its error path) of %s; match on \
                        Ok/Error instead"
                       name)
              | None -> ())
          | _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* R7: print discipline. *)

let print_idents =
  [
    "Printf.printf";
    "Printf.eprintf";
    "Format.printf";
    "Format.eprintf";
    "print_endline";
    "print_string";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
    "prerr_endline";
    "prerr_string";
    "prerr_newline";
    "Stdlib.print_endline";
    "Stdlib.print_string";
    "Stdlib.print_newline";
  ]

let naked_printf =
  {
    no_hooks with
    id = "naked-printf";
    severity = Error;
    doc =
      "Bans direct stdout/stderr printing (Printf.printf, print_endline, ...) in lib/: report \
       text is built in a Buffer the caller passes in (Printf.bprintf, Table.render) and \
       returned, and lib/ has no diagnostics stream (return failures as values or count them \
       in telemetry), so experiment output stays clean and machine-checkable. Executables in \
       bin/, bench/ and examples/ may print freely.";
    scope = in_dir "lib/";
    on_expr =
      Some
        (fun _ctx emit e ->
          match e.pexp_desc with
          | Pexp_ident { txt; loc } ->
              let name = dotted txt in
              if List.mem name print_idents then
                emit loc
                  (Printf.sprintf
                     "%s prints directly from library code; build report text in a Buffer the \
                      caller passes in and return it, and return failures as values or count \
                      them in telemetry"
                     name)
          | _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* R8: retry discipline. *)

let contains_substring hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  m > 0 && go 0

(* A binding "goes through Backoff" when its subtree mentions the module —
   as a value (Backoff.retry, Backoff.delay_ms, ...) or in a type
   annotation (plumbing a Backoff.policy through a record or argument). *)
let mentions_backoff () =
  let found = ref false in
  let default = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
        if List.mem "Backoff" (flatten_longident txt) then found := true
    | _ -> ());
    default.expr it e
  in
  let typ it (t : Parsetree.core_type) =
    (match t.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, _) ->
        if List.mem "Backoff" (flatten_longident txt) then found := true
    | _ -> ());
    default.typ it t
  in
  let it = { default with expr; typ } in
  (it, found)

let binding_mentions_backoff (vb : Parsetree.value_binding) =
  let it, found = mentions_backoff () in
  it.expr it vb.pvb_expr;
  (match vb.pvb_constraint with
  | Some (Pvc_constraint { typ; _ }) -> it.typ it typ
  | Some (Pvc_coercion { ground; coercion }) ->
      Option.iter (it.typ it) ground;
      it.typ it coercion
  | None -> ());
  !found

let retryish name =
  let n = String.lowercase_ascii name in
  contains_substring n "retry" || contains_substring n "retries"

let retry_discipline =
  {
    no_hooks with
    id = "unbounded-retry";
    severity = Error;
    doc =
      "Flags retry logic in lib/ (any value binding whose name mentions 'retry'/'retries') that never \
       references Scion_util.Backoff: hand-rolled retry loops tend to be unbounded or to sleep \
       fixed intervals, which breaks both the capped-exponential policy and the determinism \
       contract (jitter must come from the caller's Rng). Drive retries through \
       Scion_util.Backoff.retry / delay_ms.";
    (* Backoff itself is where the retry machinery lives. *)
    scope = (fun file -> in_dir "lib/" file && file <> "lib/util/backoff.ml");
    on_value_binding =
      Some
        (fun _ctx emit (vb : Parsetree.value_binding) ->
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt = name; _ } when retryish name && not (binding_mentions_backoff vb) ->
              emit vb.pvb_pat.ppat_loc
                (Printf.sprintf
                   "%s looks like retry logic but never references Scion_util.Backoff; use \
                    Backoff.retry (or Backoff.delay_ms) so retries are capped, exponential and \
                    deterministically jittered"
                   name)
          | _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* R9: global state. *)

let state_allocators = [ "ref"; "Hashtbl.create"; "Array.make"; "Buffer.create" ]

let is_unit (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident "()"; _ }, None) -> true
  | _ -> false

(* [ref x], [Hashtbl.create n], [Array.make n x], [Buffer.create n], or a
   [create] / [M.create] applied to [()]. *)
let rec allocates_state (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> allocates_state e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      List.mem (dotted txt) state_allocators
      ||
      match (List.rev (flatten_longident txt), List.rev args) with
      | "create" :: _, (Nolabel, last) :: _ -> is_unit last
      | _ -> false)
  | _ -> false

let global_state =
  {
    no_hooks with
    id = "global-state";
    severity = Error;
    doc =
      "Flags a top-level let in lib/ (nested modules included) whose body applies ref, \
       Hashtbl.create, Array.make or Buffer.create, or a create / M.create function to (): a \
       process-global mutable value outlives any one run, so a run's output can depend on \
       what ran before it in the process. Make the state part of a value the caller creates \
       and passes in.";
    scope = in_dir "lib/";
    on_structure =
      Some
        (fun _ctx emit str ->
          let rec items (str : Parsetree.structure) =
            List.iter
              (fun (item : Parsetree.structure_item) ->
                match item.pstr_desc with
                | Pstr_value (_, vbs) ->
                    List.iter
                      (fun (vb : Parsetree.value_binding) ->
                        if allocates_state vb.pvb_expr then
                          let name =
                            match vb.pvb_pat.ppat_desc with
                            | Ppat_var { txt; _ } -> txt
                            | _ -> "binding"
                          in
                          emit vb.pvb_pat.ppat_loc
                            (Printf.sprintf
                               "top-level %s is process-global mutable state; make it part of \
                                a value the caller creates and passes in"
                               name))
                      vbs
                | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } -> items s
                | _ -> ())
              str
          in
          items str);
  }

(* ------------------------------------------------------------------ *)

let rules : rule list =
  [
    determinism;
    totality;
    exception_hygiene;
    float_discipline;
    interface_coverage;
    ignored_result;
    naked_printf;
    retry_discipline;
    global_state;
  ]
