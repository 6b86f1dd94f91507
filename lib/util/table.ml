let sorted_keys ?(cmp = Stdlib.compare) t =
  (* scion-lint: allow determinism -- keys are sorted before being exposed *)
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t [] in
  List.sort_uniq cmp keys

let iter_sorted ?cmp f t =
  List.iter
    (fun k -> match Hashtbl.find_opt t k with Some v -> f k v | None -> ())
    (sorted_keys ?cmp t)

let fold_sorted ?cmp f t init =
  List.fold_left
    (fun acc k -> match Hashtbl.find_opt t k with Some v -> f k v acc | None -> acc)
    init (sorted_keys ?cmp t)

let find_or ~default t k = match Hashtbl.find_opt t k with Some v -> v | None -> default

let render ~header ~rows =
  let cols = List.length header in
  List.iter (fun r -> assert (List.length r = cols)) rows;
  let widths = Array.make cols 0 in
  let measure row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  measure header;
  List.iter measure rows;
  let buf = Buffer.create 256 in
  let pad i cell =
    Buffer.add_string buf cell;
    Buffer.add_string buf (String.make (widths.(i) - String.length cell + 2) ' ')
  in
  let line row =
    List.iteri pad row;
    Buffer.add_char buf '\n'
  in
  line header;
  let rule = List.mapi (fun i _ -> String.make widths.(i) '-') header in
  line rule;
  List.iter line rows;
  Buffer.contents buf

let fmt_ms v = Printf.sprintf "%.1f" v
let fmt_pct v = Printf.sprintf "%.1f%%" (100.0 *. v)
let fmt_ratio v = Printf.sprintf "%.3f" v
let fmt_float v = Printf.sprintf "%.6g" v
