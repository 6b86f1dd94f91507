(* Engine core for scion-lint: repo-specific static analysis over the OCaml
   parsetree. Single-file rules live in Lint_rules and run over one AST at a
   time; the whole-program passes live in Ipa and run over linked Summary
   data. This module owns the pieces both share: parsing (counted, so tests
   can assert each file is parsed exactly once), the directive-comment
   scanner (suppressions plus the hotpath / rng-stream annotations), the
   result-type registry, file collection, the finding type and the
   text/JSON reporters. Driver glues everything into one two-phase run. *)

type severity = Error | Warn

let severity_to_string = function Error -> "error" | Warn -> "warn"

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  severity : severity;
  message : string;
  pass : string;  (* "file" for per-file rules, "link" for interprocedural passes *)
  symbol : string;  (* enclosing definition, for link findings; "" otherwise *)
  chain : string list;  (* call chain from a hotpath seed to the site, outermost first *)
  detail : string;  (* stable sub-kind (e.g. the allocation kind); part of the baseline key *)
}

let finding ~file ~line ~col ~rule ~severity message =
  { file; line; col; rule; severity; message; pass = "file"; symbol = ""; chain = []; detail = "" }

(* ------------------------------------------------------------------ *)
(* Registry of values whose declared return type is [result], built from
   the .mli files of the tree. Keys are dotted paths ("Trc.update",
   "Rw.Reader.raw") with at least two components; lookups try the flattened
   longident of a call and every suffix of it, so both [Rw.Reader.raw] and
   a locally opened [Reader.raw] resolve. *)

type registry = (string, unit) Hashtbl.t

let empty_registry : registry = Hashtbl.create 1

let rec flatten_longident = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_longident l @ [ s ]
  | Longident.Lapply (a, _) -> flatten_longident a

let dotted lid = String.concat "." (flatten_longident lid)

let rec return_type (ty : Parsetree.core_type) =
  match ty.ptyp_desc with
  | Ptyp_arrow (_, _, t) -> return_type t
  | Ptyp_poly (_, t) -> return_type t
  | _ -> ty

let returns_result (vd : Parsetree.value_description) =
  match (return_type vd.pval_type).ptyp_desc with
  | Ptyp_constr ({ txt; _ }, _) -> (
      match List.rev (flatten_longident txt) with
      | "result" :: _ -> true
      | _ -> false)
  | _ -> false

let add_registry_entry reg path =
  (* Register the full path and every suffix with >= 2 components, so both
     [Rw.Reader.raw] and a locally opened [Reader.raw] resolve. *)
  let rec loop = function
    | [] | [ _ ] -> ()
    | l ->
        Hashtbl.replace reg (String.concat "." l) ();
        (match l with [] -> () | _ :: rest -> loop rest)
  in
  loop path

let rec scan_signature reg prefix (items : Parsetree.signature) =
  List.iter
    (fun (item : Parsetree.signature_item) ->
      match item.psig_desc with
      | Psig_value vd when returns_result vd ->
          add_registry_entry reg (prefix @ [ vd.pval_name.txt ])
      | Psig_module { pmd_name = { txt = Some name; _ }; pmd_type; _ } ->
          scan_module_type reg (prefix @ [ name ]) pmd_type
      | _ -> ())
    items

and scan_module_type reg prefix (mty : Parsetree.module_type) =
  match mty.pmty_desc with
  | Pmty_signature items -> scan_signature reg prefix items
  | _ -> ()

let registry_mem (reg : registry) lid =
  let rec try_suffix = function
    | [] | [ _ ] -> false
    | l -> Hashtbl.mem reg (String.concat "." l) || (match l with [] -> false | _ :: rest -> try_suffix rest)
  in
  try_suffix (flatten_longident lid)

(* ------------------------------------------------------------------ *)
(* Directive comments.

   Syntax (each written inside its own comment opening with the marker;
   spelled without the comment opener here so the scanner does not read
   this documentation as directives):

     scion-lint: allow <rule>[, <rule>...] [-- justification]
     scion-lint: hotpath [-- why]
     scion-lint: rng-stream <name> [-- why]

   A directive on line N applies to lines N and N+1, so it can sit either
   at the end of the line it describes or alone on the line above it.
   [allow] silences matching findings ([allow all] silences every rule);
   [hotpath] seeds the hotpath-allocation pass at the next definition;
   [rng-stream <name>] documents which labelled stream an interface value
   carries, satisfying the rng-stream-provenance escape check. Malformed
   directives and unknown rule ids are themselves reported (rule
   [lint-directive]) so a typo cannot silently disable checking. *)

(* Built by concatenation so the linter does not flag this very string
   literal as a directive when linting its own source. *)
let directive_marker = "scion-lint" ^ ":"

type directives = {
  by_line : (int, string list) Hashtbl.t;  (* allow directives *)
  hotpath_lines : (int, unit) Hashtbl.t;
  stream_lines : (int, string) Hashtbl.t;  (* rng-stream annotations *)
  mutable directive_errors : (int * string) list;
}

let no_directives () =
  { by_line = Hashtbl.create 1; hotpath_lines = Hashtbl.create 1;
    stream_lines = Hashtbl.create 1; directive_errors = [] }

let find_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = if i + nn > nh then None else if String.sub hay i nn = needle then Some i else at (i + 1) in
  at 0

let cut_before s sep = match find_substring s sep with None -> s | Some i -> String.sub s 0 i

(* The whole-program passes run by Driver; their ids are valid in [allow]
   lists everywhere, and Ipa emits findings under them. *)
let pass_rule_ids =
  [ "rng-stream-provenance"; "hotpath-allocation"; "telemetry-registry"; "dead-export" ]

(* Findings the engine itself can produce, also valid in [allow] lists. *)
let builtin_rule_ids = [ "lint-directive"; "parse" ] @ pass_rule_ids

(* A directive must open its comment: only whitespace may sit between the
   "(*" and the marker. This keeps prose comments and string literals that
   merely mention the marker from being parsed as directives. *)
let opens_comment line at =
  let rec back j =
    if j < 1 then false
    else
      match line.[j] with
      | ' ' | '\t' -> back (j - 1)
      | '*' -> j >= 1 && line.[j - 1] = '('
      | _ -> false
  in
  back (at - 1)

let scan_directives ~known_rules src =
  let known_rules = known_rules @ builtin_rule_ids in
  let supp = no_directives () in
  let lines = String.split_on_char '\n' src in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      match find_substring line directive_marker with
      | Some at when opens_comment line at ->
          let rest = String.sub line (at + String.length directive_marker) (String.length line - at - String.length directive_marker) in
          let rest = cut_before (cut_before rest "*)") "--" in
          let toks =
            String.split_on_char ' ' (String.map (function ',' | '\t' -> ' ' | c -> c) rest)
            |> List.filter (fun t -> t <> "")
          in
          (match toks with
          | "allow" :: (_ :: _ as rules) ->
              let bad = List.filter (fun r -> r <> "all" && not (List.mem r known_rules)) rules in
              if bad <> [] then
                supp.directive_errors <-
                  (lineno, Printf.sprintf "unknown rule id%s %s in suppression (known: %s)"
                     (if List.length bad > 1 then "s" else "")
                     (String.concat ", " bad) (String.concat ", " known_rules))
                  :: supp.directive_errors
              else Hashtbl.replace supp.by_line lineno rules
          | [ "hotpath" ] -> Hashtbl.replace supp.hotpath_lines lineno ()
          | [ "rng-stream"; name ] -> Hashtbl.replace supp.stream_lines lineno name
          | "rng-stream" :: _ ->
              supp.directive_errors <-
                (lineno, "malformed rng-stream annotation; expected (* " ^ directive_marker
                         ^ " rng-stream <name> [-- why] *)")
                :: supp.directive_errors
          | _ ->
              supp.directive_errors <-
                (lineno, "malformed directive; expected (* " ^ directive_marker
                         ^ " allow <rule>[, <rule>] [-- justification] *), (* " ^ directive_marker
                         ^ " hotpath *) or (* " ^ directive_marker ^ " rng-stream <name> *)")
                :: supp.directive_errors)
      | _ -> ())
    lines;
  supp

let suppressed supp ~line ~rule =
  let covers l =
    match Hashtbl.find_opt supp.by_line l with
    | None -> false
    | Some rules -> List.mem "all" rules || List.mem rule rules
  in
  covers line || covers (line - 1)

(* Annotations cover the line they sit on and the next, mirroring [allow]:
   the directive goes at the end of the definition's first line or alone on
   the line above it. *)
let hotpath_annotated supp ~line =
  Hashtbl.mem supp.hotpath_lines line || Hashtbl.mem supp.hotpath_lines (line - 1)

let stream_annotation supp ~line =
  match Hashtbl.find_opt supp.stream_lines line with
  | Some n -> Some n
  | None -> Hashtbl.find_opt supp.stream_lines (line - 1)

(* ------------------------------------------------------------------ *)
(* Rules. *)

type ctx = { file : string; registry : registry }

type emitter = Location.t -> string -> unit

type rule = {
  id : string;
  doc : string;
  severity : severity;
  scope : string -> bool;  (* repo-relative '/'-separated path *)
  on_expr : (ctx -> emitter -> Parsetree.expression -> unit) option;
  on_value_binding : (ctx -> emitter -> Parsetree.value_binding -> unit) option;
  on_structure : (ctx -> emitter -> Parsetree.structure -> unit) option;
      (* once per implementation, with its top-level items *)
  on_tree : (files:string list -> (file:string -> line:int -> string -> unit) -> unit) option;
}

let no_hooks = { id = ""; doc = ""; severity = Error; scope = (fun _ -> true);
                 on_expr = None; on_value_binding = None; on_structure = None; on_tree = None }

(* ------------------------------------------------------------------ *)
(* Parsing. Every parse is counted per file so the test suite can assert
   the two-phase driver parses each file exactly once, shared across every
   rule and pass. *)

type ast = Impl of Parsetree.structure | Intf of Parsetree.signature

let parse_counts : (string, int) Hashtbl.t = Hashtbl.create 64

let reset_parse_counts () = Hashtbl.reset parse_counts

let parse_count file = match Hashtbl.find_opt parse_counts file with Some n -> n | None -> 0

let parse_ast ~file src =
  Hashtbl.replace parse_counts file (parse_count file + 1);
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  Location.input_name := file;
  try
    if Filename.check_suffix file ".mli" then Ok (Intf (Parse.interface lexbuf))
    else Ok (Impl (Parse.implementation lexbuf))
  with exn -> (
    match Location.error_of_exn exn with
    | Some (`Ok report) ->
        let loc = report.Location.main.loc in
        Error (loc.loc_start.pos_lnum, Format.asprintf "%t" report.Location.main.txt)
    | _ -> Error (1, Printexc.to_string exn))

(* ------------------------------------------------------------------ *)
(* Per-file engine. [lint_source] parses internally when no pre-parsed
   [ast] is supplied (unit tests); Driver always supplies one so the tree
   run parses each file exactly once. *)

let loc_line (loc : Location.t) = loc.loc_start.pos_lnum
let loc_col (loc : Location.t) = loc.loc_start.pos_cnum - loc.loc_start.pos_bol

let lint_source ?(registry = empty_registry) ?ast ~rules ~file src =
  let findings = ref [] in
  let supp = scan_directives ~known_rules:(List.map (fun r -> r.id) rules) src in
  let add ~line ~col ~rule:id ~severity message =
    if not (suppressed supp ~line ~rule:id) then
      findings := finding ~file ~line ~col ~rule:id ~severity message :: !findings
  in
  List.iter
    (fun (line, msg) -> add ~line ~col:0 ~rule:"lint-directive" ~severity:Error msg)
    supp.directive_errors;
  let active = List.filter (fun r -> r.scope file) rules in
  let parsed = match ast with Some a -> a | None -> parse_ast ~file src in
  (match parsed with
  | Error (line, msg) -> add ~line ~col:0 ~rule:"parse" ~severity:Error ("syntax error: " ^ msg)
  | Ok ast ->
      let ctx = { file; registry } in
      let emitter_of r loc msg = add ~line:(loc_line loc) ~col:(loc_col loc) ~rule:r.id ~severity:r.severity msg in
      let expr_rules = List.filter_map (fun r -> Option.map (fun h -> (r, h)) r.on_expr) active in
      let vb_rules = List.filter_map (fun r -> Option.map (fun h -> (r, h)) r.on_value_binding) active in
      let default = Ast_iterator.default_iterator in
      let iter =
        {
          default with
          expr =
            (fun it e ->
              List.iter (fun (r, h) -> h ctx (emitter_of r) e) expr_rules;
              default.expr it e);
          value_binding =
            (fun it vb ->
              List.iter (fun (r, h) -> h ctx (emitter_of r) vb) vb_rules;
              default.value_binding it vb);
        }
      in
      (match ast with
      | Impl str ->
          List.iter
            (fun r -> Option.iter (fun h -> h ctx (emitter_of r) str) r.on_structure)
            active;
          iter.structure iter str
      | Intf sg -> iter.signature iter sg));
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Tree walking. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic)

let is_source f = Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"

let collect_files ~root dirs =
  let acc = ref [] in
  let rec walk rel =
    let abs = Filename.concat root rel in
    if Sys.file_exists abs then
      if Sys.is_directory abs then begin
        let entries = Sys.readdir abs in
        Array.sort String.compare entries;
        Array.iter
          (fun e ->
            if e <> "_build" && e <> ".git" && not (String.length e > 0 && e.[0] = '.') then
              walk (rel ^ "/" ^ e))
          entries
      end
      else if is_source rel then acc := rel :: !acc
  in
  List.iter
    (fun d ->
      let abs = Filename.concat root d in
      if Sys.file_exists abs && Sys.is_directory abs then begin
        let entries = Sys.readdir abs in
        Array.sort String.compare entries;
        Array.iter (fun e -> if e <> "_build" then walk (d ^ "/" ^ e)) entries
      end)
    dirs;
  List.sort String.compare !acc

let build_registry parsed =
  let reg : registry = Hashtbl.create 64 in
  List.iter
    (fun (file, ast) ->
      match ast with
      | Ok (Intf sg) ->
          let modname = String.capitalize_ascii (Filename.remove_extension (Filename.basename file)) in
          scan_signature reg [ modname ] sg
      | _ -> ())
    parsed;
  reg

let compare_findings (a : finding) (b : finding) =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare a.line b.line in
    if c <> 0 then c
    else
      let c = compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

(* ------------------------------------------------------------------ *)
(* Reporters. *)

let to_text (f : finding) =
  let chain =
    match f.chain with
    | [] -> ""
    | c -> Printf.sprintf " [via %s]" (String.concat " -> " c)
  in
  Printf.sprintf "%s:%d:%d: [%s] %s: %s%s" f.file f.line f.col (severity_to_string f.severity)
    f.rule f.message chain

let report_text findings = String.concat "" (List.map (fun f -> to_text f ^ "\n") findings)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let finding_to_json (f : finding) =
  let base =
    Printf.sprintf {|"file":"%s","line":%d,"col":%d,"rule":"%s","pass":"%s","severity":"%s","message":"%s"|}
      (json_escape f.file) f.line f.col (json_escape f.rule) (json_escape f.pass)
      (severity_to_string f.severity) (json_escape f.message)
  in
  let opt key v = if v = "" then "" else Printf.sprintf {|,"%s":"%s"|} key (json_escape v) in
  let chain =
    match f.chain with
    | [] -> ""
    | c ->
        Printf.sprintf {|,"chain":[%s]|}
          (String.concat "," (List.map (fun s -> "\"" ^ json_escape s ^ "\"") c))
  in
  "{" ^ base ^ opt "symbol" f.symbol ^ opt "kind" f.detail ^ chain ^ "}"

let report_json findings =
  "[" ^ String.concat ",\n " (List.map finding_to_json findings) ^ "]\n"

let count sev (findings : finding list) = List.length (List.filter (fun (f : finding) -> f.severity = sev) findings)
let has_errors (findings : finding list) = List.exists (fun (f : finding) -> f.severity = Error) findings
