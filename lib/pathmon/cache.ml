module Table = Scion_util.Table

type t = {
  metrics : Telemetry.Metrics.registry option;
  config : Estimator.config;
  by_dst : (string, (string, Estimator.t) Hashtbl.t) Hashtbl.t;
}

let create ?metrics ?(config = Estimator.default_config) () =
  { metrics; config; by_dst = Hashtbl.create 8 }

(* Telemetry label for a path: enough fingerprint to disambiguate, short
   enough to keep series names readable. *)
let path_label fingerprint =
  if String.length fingerprint <= 12 then fingerprint else String.sub fingerprint 0 12

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
      let est =
        Estimator.create ?metrics:t.metrics
          ~labels:[ ("dst", dst); ("path", path_label fingerprint) ]
          ~config:t.config ()
      in
      Hashtbl.replace dst_table fingerprint est;
      est

let peek t ~dst ~fingerprint =
  Option.bind (Hashtbl.find_opt t.by_dst dst) (fun table -> Hashtbl.find_opt table fingerprint)


