type hop = { ia : Ia.t; ingress : int; egress : int }
type t = { pred_ia : Ia.t; if1 : int; if2 : int option }

let parse s =
  let ia_part, if_part =
    match String.index_opt s '#' with
    | None -> (s, "")
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  match Ia.of_string ia_part with
  | exception Invalid_argument m -> Error m
  | pred_ia -> (
      let ifid str =
        match int_of_string_opt str with
        | Some v when v >= 0 -> Ok v
        | Some _ | None -> Error (Printf.sprintf "bad interface id %S" str)
      in
      match String.split_on_char ',' if_part with
      | [ "" ] -> Ok { pred_ia; if1 = 0; if2 = None }
      | [ one ] -> (
          match ifid one with Ok v -> Ok { pred_ia; if1 = v; if2 = None } | Error e -> Error e)
      | [ a; b ] -> (
          match (ifid a, ifid b) with
          | Ok v1, Ok v2 -> Ok { pred_ia; if1 = v1; if2 = Some v2 }
          | Error e, _ | _, Error e -> Error e)
      | _ -> Error (Printf.sprintf "malformed interface list %S" if_part))

let to_string p =
  let base = Ia.to_string p.pred_ia in
  match p.if2 with
  | None -> if p.if1 = 0 then base else Printf.sprintf "%s#%d" base p.if1
  | Some i2 -> Printf.sprintf "%s#%d,%d" base p.if1 i2

let ia_matches pred ia =
  (pred.Ia.isd = 0 || pred.Ia.isd = ia.Ia.isd)
  && (Ia.asn_to_int pred.Ia.asn = 0 || Ia.asn_to_int pred.Ia.asn = Ia.asn_to_int ia.Ia.asn)

let matches p hop =
  ia_matches p.pred_ia hop.ia
  &&
  match p.if2 with
  | Some i2 ->
      (p.if1 = 0 || p.if1 = hop.ingress) && (i2 = 0 || i2 = hop.egress)
  | None -> p.if1 = 0 || p.if1 = hop.ingress || p.if1 = hop.egress

type token = Pred of t | Star
type sequence = token list

let parse_sequence s =
  let parts = String.split_on_char ' ' s |> List.filter (fun p -> p <> "") in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | "*" :: rest -> go (Star :: acc) rest
    | p :: rest -> (
        match parse p with Ok pred -> go (Pred pred :: acc) rest | Error e -> Error e)
  in
  go [] parts

let sequence_to_string seq =
  String.concat " " (List.map (function Star -> "*" | Pred p -> to_string p) seq)

let sequence_matches seq hops =
  (* Backtracking match: [Star] consumes zero or more hops. *)
  let rec go tokens hops =
    match (tokens, hops) with
    | [], [] -> true
    | [], _ :: _ -> false
    | Star :: rest, [] -> go rest []
    | Star :: rest, _ :: tail -> go rest hops || go tokens tail
    | Pred _ :: _, [] -> false
    | Pred p :: rest, h :: tail -> matches p h && go rest tail
  in
  match seq with [] -> true | _ -> go seq hops

let deny_transit ~through ~endpoints_ok hops =
  let n = List.length hops in
  List.for_all2
    (fun idx hop ->
      if not (Ia.Set.mem hop.ia through) then true
      else endpoints_ok && (idx = 0 || idx = n - 1))
    (List.init n Fun.id) hops
