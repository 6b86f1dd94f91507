(* Phase 1 of the whole-program analyzer: one pass over a parsed module
   extracting a compact summary of everything the interprocedural passes in
   Ipa need — defined values, outgoing calls, Rng.of_label stream labels
   created and the callees each stream is handed to, Telemetry metric-name
   string literals (including the local `let counter ?extra name = M.counter
   ...` wrapper idiom), allocating constructs, and hotpath annotations; for
   interfaces, the exported values; and for every implementation, the
   value paths, opens and whole-module uses it references.
   Summaries are pure data: linking them into a call graph and judging them
   is Ipa's job, so each source file is parsed (and summarised) exactly
   once no matter how many passes consume it. *)

type alloc_kind =
  | Closure
  | Tuple
  | Record
  | Variant
  | Array_lit
  | Bytes_alloc
  | String_concat
  | List_append
  | Boxed_float
  | Partial_apply

let kind_slug = function
  | Closure -> "closure"
  | Tuple -> "tuple"
  | Record -> "record"
  | Variant -> "variant"
  | Array_lit -> "array"
  | Bytes_alloc -> "bytes"
  | String_concat -> "string"
  | List_append -> "list-append"
  | Boxed_float -> "boxed-float"
  | Partial_apply -> "partial-apply"

type alloc = { al_kind : alloc_kind; al_line : int; al_what : string }

type call = { c_path : string list; c_args : int; c_line : int }
(* [c_args] is the number of arguments at an application site, or -1 for a
   bare reference (a function passed as a value). *)

type stream_site = { st_label : string option; st_line : int }
(* [st_label] is [None] when the label is not a string literal. *)

type metric_site = { m_name : string option; m_kind : string; m_line : int }

type fn = {
  fn_path : string list;  (* enclosing module path, file module first *)
  fn_name : string;
  fn_key : string;  (* String.concat "." (fn_path @ [fn_name]) *)
  fn_line : int;
  fn_is_fun : bool;
  fn_arity : int;  (* non-optional parameters; meaningful when fn_is_fun *)
  fn_hotpath : bool;
  fn_calls : call list;
  fn_allocs : alloc list;
  fn_streams : stream_site list;
  fn_stream_roots : (string * string list) list;  (* label -> callee path handed the stream *)
  fn_metrics : metric_site list;
  fn_captured_draws : (string * int) list;  (* Rng draw on a stream that names none of the fn's bindings *)
}

type file_summary = {
  sm_file : string;
  sm_subsystem : string;  (* "lib/<dir>" for library code, else the top directory *)
  sm_module : string;
  sm_fns : fn list;
}

type intf_val = { iv_name : string; iv_line : int; iv_stream : string option }

type export = { ex_path : string list; ex_name : string; ex_line : int }
(* [ex_path] is the module path of an exported value, file module first. *)

type intf_summary = {
  im_file : string;
  im_vals : intf_val list;  (* vals exposing an Rng.t *)
  im_exports : export list;  (* every val, in source order *)
  im_whole : string list list;  (* modules the interface re-exports whole *)
}

type file_refs = {
  rf_file : string;
  rf_values : string list list;  (* every value path mentioned, raw and alias-resolved *)
  rf_opens : string list list;
  rf_whole : string list list;  (* modules used as a whole: included, applied, packed *)
}

(* ------------------------------------------------------------------ *)

let subsystem_of file =
  match String.split_on_char '/' file with
  | "lib" :: dir :: _ -> "lib/" ^ dir
  | top :: _ :: _ -> top
  | _ -> file

let module_of file = String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

let metric_kinds = [ "counter"; "gauge"; "histogram"; "summary" ]

let rng_draws =
  [ "next"; "int"; "float"; "bool"; "gaussian"; "exponential"; "lognormal"; "pick"; "shuffle";
    "bytes"; "split" ]

let bytes_allocators =
  [ "create"; "make"; "sub"; "copy"; "cat"; "concat"; "of_string"; "to_string"; "extend"; "init" ]

let string_allocators =
  [ "concat"; "sub"; "make"; "init"; "map"; "cat"; "uppercase_ascii"; "lowercase_ascii";
    "capitalize_ascii"; "escaped" ]

let float_ops = [ "+."; "-."; "*."; "/."; "**" ]

(* ------------------------------------------------------------------ *)

let pattern_name (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
  | _ -> None

(* Unwrap the leading parameter chain of a binding body: parameter names,
   the count of non-optional parameters, and the first non-fun body. *)
let rec unwrap_params params nonopt (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (lbl, _, pat, body) ->
      let name = match pattern_name pat with Some n -> n | None -> "_" in
      let nonopt = nonopt + (match lbl with Optional _ -> 0 | Nolabel | Labelled _ -> 1) in
      unwrap_params (name :: params) nonopt body
  | Pexp_newtype (_, body) -> unwrap_params params nonopt body
  | _ -> (List.rev params, nonopt, e)

(* Every name bound by any pattern inside [vb] (parameters, lets, match
   arms): used to decide whether an Rng draw reads a stream the function
   received or created, or one captured from the outside. *)
let bound_names (vb : Parsetree.value_binding) =
  let names = Hashtbl.create 16 in
  let default = Ast_iterator.default_iterator in
  let pat it (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_var { txt; _ } -> Hashtbl.replace names txt ()
    | _ -> ());
    default.pat it p
  in
  let it = { default with pat } in
  it.value_binding it vb;
  names

(* Idents an expression mentions, as base names: [x] for x, [t] for t.rng,
   module-qualified paths contribute their head. *)
let mentioned_names (e : Parsetree.expression) =
  let acc = ref [] in
  let default = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match Lint.flatten_longident txt with h :: _ -> acc := h :: !acc | [] -> ())
    | _ -> ());
    default.expr it e
  in
  let it = { default with expr } in
  it.expr it e;
  !acc

let string_literal (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

let apply_head_args (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> Some (txt, args)
  | _ -> None

let last_nolabel args =
  List.fold_left
    (fun acc (lbl, a) -> match lbl with Asttypes.Nolabel -> Some a | _ -> acc)
    None args

let ends_with ~suffix l =
  let n = List.length l and m = List.length suffix in
  n >= m
  &&
  let rec drop k = function xs when k = 0 -> xs | _ :: xs -> drop (k - 1) xs | [] -> [] in
  drop (n - m) l = suffix

(* ------------------------------------------------------------------ *)

type ctx = {
  file : string;
  directives : Lint.directives;
  aliases : (string, string list) Hashtbl.t;  (* module alias -> expansion *)
  wrappers : (string, string) Hashtbl.t;  (* local metric wrapper -> metric kind *)
  wrapper_params : (string, unit) Hashtbl.t;  (* name-parameters of known wrappers *)
  mutable fns : fn list;
}

let resolve ctx = function
  | [] -> []
  | hd :: rest -> (
      match Hashtbl.find_opt ctx.aliases hd with
      | Some expansion -> expansion @ rest
      | None -> hd :: rest)

let is_metrics_call ctx lid =
  match List.rev (resolve ctx (Lint.flatten_longident lid)) with
  | fn :: "Metrics" :: _ when List.mem fn metric_kinds -> Some fn
  | _ -> None

let is_rng_call ctx lid ~fns =
  match List.rev (resolve ctx (Lint.flatten_longident lid)) with
  | fn :: "Rng" :: _ when List.mem fn fns -> Some fn
  | _ -> None

(* Does [body] (a candidate wrapper with parameters [params]) forward one of
   its own parameters as the metric name of a Metrics call? *)
let wrapper_kind ctx ~params body =
  let found = ref None in
  let default = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    (match apply_head_args e with
    | Some (lid, args) -> (
        match is_metrics_call ctx lid with
        | Some kind -> (
            match last_nolabel args with
            | Some { pexp_desc = Pexp_ident { txt = Longident.Lident p; _ }; _ }
              when List.mem p params ->
                found := Some (kind, p)
            | _ -> ())
        | None -> ())
    | None -> ());
    default.expr it e
  in
  let it = { default with expr } in
  it.expr it body;
  !found

(* Labels of Rng.of_label applications anywhere inside [e] (used to treat a
   callee handed an inline [Rng.of_label seed "x"] as a root of stream x). *)
let inline_stream_labels ctx (e : Parsetree.expression) =
  let acc = ref [] in
  let default = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    (match apply_head_args e with
    | Some (lid, args) when is_rng_call ctx lid ~fns:[ "of_label" ] <> None -> (
        match args with
        | _ :: (Asttypes.Nolabel, arg) :: _ -> (
            match string_literal arg with Some l -> acc := l :: !acc | None -> ())
        | _ -> ())
    | _ -> ());
    default.expr it e
  in
  let it = { default with expr } in
  it.expr it e;
  !acc

(* ------------------------------------------------------------------ *)
(* The per-binding fact walk. *)

let walk_binding ctx ~path ~name ~hotpath (vb : Parsetree.value_binding) =
  let params, arity, body = unwrap_params [] 0 vb.pvb_expr in
  let is_fun =
    params <> [] || (match body.pexp_desc with Pexp_function _ -> true | _ -> false)
  in
  let bound = bound_names vb in
  let calls = ref [] and allocs = ref [] and streams = ref [] in
  let roots = ref [] and metrics = ref [] and captured = ref [] in
  let stream_vars : (string, string) Hashtbl.t = Hashtbl.create 4 in
  let alloc kind line what = allocs := { al_kind = kind; al_line = line; al_what = what } :: !allocs in
  (* The binding itself may be a metric wrapper (the idiom is a local
     [let counter ?extra name = M.counter registry ~labels:(...) name]). *)
  (match wrapper_kind ctx ~params body with
  | Some (kind, name_param) when is_fun ->
      Hashtbl.replace ctx.wrappers name kind;
      Hashtbl.replace ctx.wrapper_params name_param ()
  | _ -> ());
  let is_wrapper_param = function
    | { Parsetree.pexp_desc = Pexp_ident { txt = Longident.Lident p; _ }; _ } ->
        Hashtbl.mem ctx.wrapper_params p
    | _ -> false
  in
  let record_metric ~kind ~line name_arg =
    match string_literal name_arg with
    | Some n -> metrics := { m_name = Some n; m_kind = kind; m_line = line } :: !metrics
    | None ->
        if not (is_wrapper_param name_arg) then
          metrics := { m_name = None; m_kind = kind; m_line = line } :: !metrics
  in
  let default = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    let line = line_of e.pexp_loc in
    (match e.pexp_desc with
    | Pexp_let (_, vbs, _) ->
        List.iter
          (fun (b : Parsetree.value_binding) ->
            match pattern_name b.pvb_pat with
            | None -> ()
            | Some v -> (
                (* Stream bindings: let fault_rng = Rng.of_label seed "fault". *)
                (match apply_head_args b.pvb_expr with
                | Some (lid, args) when is_rng_call ctx lid ~fns:[ "of_label" ] <> None -> (
                    match args with
                    | _ :: (Asttypes.Nolabel, arg) :: _ -> (
                        match string_literal arg with
                        | Some l -> Hashtbl.replace stream_vars v l
                        | None -> ())
                    | _ -> ())
                | _ -> ());
                (* Nested metric wrappers: let counter ?extra name = ... *)
                let ps, _, inner = unwrap_params [] 0 b.pvb_expr in
                match wrapper_kind ctx ~params:ps inner with
                | Some (kind, name_param) when ps <> [] ->
                    Hashtbl.replace ctx.wrappers v kind;
                    Hashtbl.replace ctx.wrapper_params name_param ()
                | _ -> ()))
          vbs
    | Pexp_letmodule ({ txt = Some m; _ }, { pmod_desc = Pmod_ident { txt; _ }; _ }, _) ->
        Hashtbl.replace ctx.aliases m (Lint.flatten_longident txt)
    | Pexp_ident { txt; _ } ->
        calls := { c_path = resolve ctx (Lint.flatten_longident txt); c_args = -1; c_line = line } :: !calls
    | Pexp_fun _ | Pexp_function _ -> alloc Closure line "closure"
    | Pexp_lazy _ -> alloc Closure line "lazy block"
    | Pexp_tuple _ -> alloc Tuple line "tuple"
    | Pexp_record _ -> alloc Record line "record"
    | Pexp_array _ -> alloc Array_lit line "array literal"
    | Pexp_variant (_, Some _) -> alloc Variant line "polymorphic variant"
    | Pexp_construct ({ txt; _ }, Some _) -> (
        match Lint.flatten_longident txt with
        | [ "::" ] -> alloc Variant line "list cons"
        | p -> alloc Variant line (String.concat "." p))
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
        let comps = resolve ctx (Lint.flatten_longident txt) in
        calls := { c_path = comps; c_args = List.length args; c_line = line } :: !calls;
        (* Allocation by known constructs. *)
        (match comps with
        | [ "^" ] -> alloc String_concat line "string concatenation (^)"
        | [ "@" ] -> alloc List_append line "list append (@)"
        | [ op ] when List.mem op float_ops -> alloc Boxed_float line ("float arithmetic (" ^ op ^ ")")
        | _ -> (
            match List.rev comps with
            | f :: "Bytes" :: _ when List.mem f bytes_allocators ->
                alloc Bytes_alloc line ("Bytes." ^ f)
            | f :: "String" :: _ when List.mem f string_allocators ->
                alloc String_concat line ("String." ^ f)
            | f :: "List" :: _ when List.mem f [ "append"; "concat" ] ->
                alloc List_append line ("List." ^ f)
            | "sprintf" :: "Printf" :: _ -> alloc String_concat line "Printf.sprintf"
            | "asprintf" :: "Format" :: _ -> alloc String_concat line "Format.asprintf"
            | _ -> ()));
        (* Stream creation sites. *)
        (match is_rng_call ctx txt ~fns:[ "of_label" ] with
        | Some _ ->
            let label =
              match args with
              | _ :: (Asttypes.Nolabel, arg) :: _ -> string_literal arg
              | _ -> None
            in
            streams := { st_label = label; st_line = line } :: !streams
        | None -> ());
        (* Captured-stream draws. *)
        (match is_rng_call ctx txt ~fns:rng_draws with
        | Some d -> (
            match List.find_opt (fun (lbl, _) -> lbl = Asttypes.Nolabel) args with
            | Some (_, stream_expr) ->
                let names = mentioned_names stream_expr in
                if names <> [] && not (List.exists (Hashtbl.mem bound) names) then
                  captured := (d, line) :: !captured
            | None -> ())
        | None -> ());
        (* Metric registration sites. *)
        (match is_metrics_call ctx txt with
        | Some kind -> (
            (* Require the receiver argument too, so a partial application
               like [M.counter registry] is not mistaken for a name. *)
            match List.filter (fun (lbl, _) -> lbl = Asttypes.Nolabel) args with
            | _ :: _ :: _ -> (
                match last_nolabel args with
                | Some name_arg -> record_metric ~kind ~line name_arg
                | None -> ())
            | _ -> ())
        | None -> (
            match Lint.flatten_longident txt with
            | [ w ] -> (
                match (Hashtbl.find_opt ctx.wrappers w, last_nolabel args) with
                | Some kind, Some name_arg -> record_metric ~kind ~line name_arg
                | _ -> ())
            | _ -> ()));
        (* Stream hand-off: a callee receiving a stream variable or an
           inline of_label becomes a root of that stream's call path. *)
        List.iter
          (fun ((_ : Asttypes.arg_label), (arg : Parsetree.expression)) ->
            (match arg.pexp_desc with
            | Pexp_ident { txt = Longident.Lident v; _ } -> (
                match Hashtbl.find_opt stream_vars v with
                | Some label -> roots := (label, comps) :: !roots
                | None -> ())
            | _ -> ());
            match inline_stream_labels ctx arg with
            | [] -> ()
            | labels -> List.iter (fun l -> roots := (l, comps) :: !roots) labels)
          args)
    | _ -> ());
    default.expr it e
  in
  let it = { default with expr } in
  it.expr it body;
  let key = String.concat "." (path @ [ name ]) in
  ctx.fns <-
    {
      fn_path = path;
      fn_name = name;
      fn_key = key;
      fn_line = line_of vb.pvb_loc;
      fn_is_fun = is_fun;
      fn_arity = arity;
      fn_hotpath = hotpath;
      fn_calls = List.rev !calls;
      fn_allocs = List.rev !allocs;
      fn_streams = List.rev !streams;
      fn_stream_roots = List.rev_map (fun (l, c) -> (l, c)) !roots;
      fn_metrics = List.rev !metrics;
      fn_captured_draws = List.rev !captured;
    }
    :: ctx.fns

(* ------------------------------------------------------------------ *)

let of_structure ~file ~directives (str : Parsetree.structure) =
  let ctx =
    { file; directives; aliases = Hashtbl.create 8; wrappers = Hashtbl.create 4;
      wrapper_params = Hashtbl.create 4; fns = [] }
  in
  let rec items path (l : Parsetree.structure) = List.iter (item path) l
  and item path (si : Parsetree.structure_item) =
    match si.pstr_desc with
    | Pstr_module { pmb_name = { txt = Some m; _ }; pmb_expr; _ } -> (
        match pmb_expr.pmod_desc with
        | Pmod_ident { txt; _ } -> Hashtbl.replace ctx.aliases m (Lint.flatten_longident txt)
        | Pmod_structure s -> items (path @ [ m ]) s
        | _ -> ())
    | Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            let name = match pattern_name vb.pvb_pat with Some n -> n | None -> "_" in
            let hotpath = Lint.hotpath_annotated directives ~line:(line_of vb.pvb_loc) in
            walk_binding ctx ~path ~name ~hotpath vb)
          vbs
    | _ -> ()
  in
  items [ module_of file ] str;
  {
    sm_file = file;
    sm_subsystem = subsystem_of file;
    sm_module = module_of file;
    sm_fns = List.rev ctx.fns;
  }

(* ------------------------------------------------------------------ *)
(* Interface summaries: which vals expose an Rng.t, and whether each one
   carries an rng-stream annotation. *)

let type_mentions_rng (ty : Parsetree.core_type) =
  let found = ref false in
  let default = Ast_iterator.default_iterator in
  let typ it (t : Parsetree.core_type) =
    (match t.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, _) ->
        if ends_with ~suffix:[ "Rng"; "t" ] (Lint.flatten_longident txt) then found := true
    | _ -> ());
    default.typ it t
  in
  let it = { default with typ } in
  it.typ it ty;
  !found

(* Only plain vals and vals of nested [sig ... end] modules are exports;
   vals inside functor or module-type signatures fill a signature, so the
   dead-export pass never judges them. *)
let of_signature ~file ~directives (sg : Parsetree.signature) =
  let vals = ref [] and exports = ref [] and whole = ref [] in
  let rec items path (l : Parsetree.signature) = List.iter (item path) l
  and item path (si : Parsetree.signature_item) =
    match si.psig_desc with
    | Psig_value vd ->
        let line = line_of vd.pval_loc in
        exports := { ex_path = path; ex_name = vd.pval_name.txt; ex_line = line } :: !exports;
        if type_mentions_rng vd.pval_type then
          vals :=
            { iv_name = vd.pval_name.txt; iv_line = line;
              iv_stream = Lint.stream_annotation directives ~line }
            :: !vals
    | Psig_module { pmd_name = { txt = Some m; _ }; pmd_type = { pmty_desc = Pmty_signature s; _ }; _ }
      ->
        items (path @ [ m ]) s
    | Psig_module { pmd_name = { txt = Some m; _ }; pmd_type = { pmty_desc = Pmty_alias { txt; _ }; _ }; _ }
      -> (
        (* [module M = P] re-exports P; under its own name, suffix matching
           already sees through it. *)
        match List.rev (Lint.flatten_longident txt) with
        | last :: _ when last = m -> ()
        | _ -> whole := Lint.flatten_longident txt :: !whole)
    | Psig_include { pincl_mod = { pmty_desc = Pmty_typeof { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }; _ }
      ->
        whole := Lint.flatten_longident txt :: !whole
    | _ -> ()
  in
  items [ module_of file ] sg;
  { im_file = file; im_vals = List.rev !vals; im_exports = List.rev !exports; im_whole = List.rev !whole }

(* ------------------------------------------------------------------ *)
(* Reference facts for the dead-export pass. Aliases are collected
   file-wide and applied flow-insensitively; every path is kept both raw
   and resolved, so an unresolvable reference errs toward "used". *)

let refs_of_structure ~file (str : Parsetree.structure) =
  let aliases = Hashtbl.create 8 in
  let values = ref [] and opens = ref [] and whole = ref [] in
  let lid_path (lid : Longident.t Location.loc) = Lint.flatten_longident lid.txt in
  let alias_or_use name (me : Parsetree.module_expr) k =
    match (name, me.pmod_desc) with
    | Some m, Pmod_ident lid -> Hashtbl.replace aliases m (lid_path lid)
    | _ -> k ()
  in
  let open_of (od : Parsetree.open_declaration) k =
    match od.popen_expr.pmod_desc with Pmod_ident lid -> opens := lid_path lid :: !opens | _ -> k ()
  in
  let default = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident lid ->
        values := lid_path lid :: !values
    | Pexp_open (od, body) ->
        open_of od (fun () -> it.Ast_iterator.open_declaration it od);
        it.expr it body
    | Pexp_letmodule ({ txt; _ }, me, body) ->
        alias_or_use txt me (fun () -> it.module_expr it me);
        it.expr it body
    | _ -> default.expr it e
  in
  let structure_item it (si : Parsetree.structure_item) =
    match si.pstr_desc with
    | Pstr_open od -> open_of od (fun () -> default.structure_item it si)
    | Pstr_module { pmb_name = { txt; _ }; pmb_expr; _ } ->
        alias_or_use txt pmb_expr (fun () -> default.structure_item it si)
    | _ -> default.structure_item it si
  in
  let module_expr it (me : Parsetree.module_expr) =
    (match me.pmod_desc with Pmod_ident lid -> whole := lid_path lid :: !whole | _ -> ());
    default.module_expr it me
  in
  let it = { default with expr; structure_item; module_expr } in
  it.structure it str;
  let rec resolve depth = function
    | hd :: rest when depth < 8 -> (
        match Hashtbl.find_opt aliases hd with
        | Some expansion -> resolve (depth + 1) (expansion @ rest)
        | None -> hd :: rest)
    | p -> p
  in
  let both paths =
    List.concat_map (fun p -> match resolve 0 p with r when r = p -> [ p ] | r -> [ p; r ]) paths
  in
  { rf_file = file; rf_values = both !values; rf_opens = both !opens; rf_whole = both !whole }
