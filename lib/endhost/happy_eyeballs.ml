type family = Scion | Ipv6 | Ipv4

type candidate = { family : family; available : bool; connect_ms : float }

type outcome = {
  winner : family option;
  established_ms : float;
  attempts : family list;
}

let race ?(preference = [ Scion; Ipv6; Ipv4 ]) ?(stagger_ms = 250.0) candidates =
  (* Order candidates by preference; unlisted families go last. *)
  let rank f =
    let rec idx i = function
      | [] -> max_int
      | x :: rest -> if x = f then i else idx (i + 1) rest
    in
    idx 0 preference
  in
  let ordered =
    List.stable_sort (fun a b -> Stdlib.compare (rank a.family) (rank b.family)) candidates
  in
  let attempts = List.map (fun c -> c.family) ordered in
  (* Attempt i starts at i * stagger; completion = start + connect time. *)
  let completions =
    List.filteri (fun _ c -> c.available) ordered
    |> List.map (fun c ->
           let start =
             stagger_ms
             *. float_of_int
                  (match
                     List.find_index (fun x -> x.family = c.family) ordered
                   with
                  | Some i -> i
                  | None -> 0)
           in
           (c.family, start +. c.connect_ms))
  in
  match completions with
  | [] -> { winner = None; established_ms = Float.infinity; attempts }
  | first :: rest ->
      let family, best =
        List.fold_left
          (fun (bf, bt) (f, t) -> if t < bt then (f, t) else (bf, bt))
          first rest
      in
      { winner = Some family; established_ms = best; attempts }
