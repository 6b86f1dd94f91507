module Table = Scion_util.Table

type t = { by_dst : (string, (string, Estimator.t) Hashtbl.t) Hashtbl.t }

let create () = { by_dst = Hashtbl.create 8 }

let find t ~dst ~fingerprint =
  let dst_table =
    match Hashtbl.find_opt t.by_dst dst with
    | Some table -> table
    | None ->
        let table = Hashtbl.create 8 in
        Hashtbl.replace t.by_dst dst table;
        table
  in
  match Hashtbl.find_opt dst_table fingerprint with
  | Some est -> est
  | None ->
      let est = Estimator.create () in
      Hashtbl.replace dst_table fingerprint est;
      est

let peek t ~dst ~fingerprint =
  Option.bind (Hashtbl.find_opt t.by_dst dst) (fun table -> Hashtbl.find_opt table fingerprint)


