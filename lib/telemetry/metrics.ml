(* Deterministic metrics registry. All state is plain mutable OCaml; the
   only iteration over the backing table goes through
   Scion_util.Table.fold_sorted, so snapshots come out in ascending
   (name, labels) order no matter what the hash seed or insertion history
   was — the property the byte-identical-snapshot guarantee rests on. *)

module Table = Scion_util.Table
module Stats = Scion_util.Stats

type labels = (string * string) list

let normalize_labels labels =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then invalid_arg (Printf.sprintf "Metrics: duplicate label key %S" a)
        else check rest
    | [ _ ] | [] -> ()
  in
  check sorted;
  sorted

type counter = { mutable count : int }
type gauge = { mutable gauge_value : float }

type histogram = {
  upper : float array;  (* strictly increasing bucket upper bounds *)
  bucket_counts : int array;
  mutable overflow : int;
  mutable h_count : int;
  mutable h_sum : float;
}

type summary = {
  mutable samples : float array;
  mutable n : int;
  mutable s_sum : float;
}

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_histogram of histogram
  | M_summary of summary

let kind_of = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_histogram _ -> "histogram"
  | M_summary _ -> "summary"

type registry = { table : (string * labels, metric) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }
let size t = Hashtbl.length t.table

let register t ~name ~labels ~make ~cast =
  if String.length name = 0 then invalid_arg "Metrics: empty metric name";
  let key = (name, normalize_labels labels) in
  match Hashtbl.find_opt t.table key with
  | Some m -> (
      match cast m with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S is already registered as a %s" name (kind_of m)))
  | None ->
      let m, v = make () in
      Hashtbl.replace t.table key m;
      v

let counter t ?(labels = []) name =
  register t ~name ~labels
    ~make:(fun () ->
      let c = { count = 0 } in
      (M_counter c, c))
    ~cast:(function M_counter c -> Some c | M_gauge _ | M_histogram _ | M_summary _ -> None)

let inc c = c.count <- c.count + 1

let add c n =
  if n < 0 then invalid_arg "Metrics.add: negative increment";
  c.count <- c.count + n


let gauge t ?(labels = []) name =
  register t ~name ~labels
    ~make:(fun () ->
      let g = { gauge_value = 0.0 } in
      (M_gauge g, g))
    ~cast:(function M_gauge g -> Some g | M_counter _ | M_histogram _ | M_summary _ -> None)

let set g v = g.gauge_value <- v

let histogram t ?(labels = []) ~buckets name =
  (match buckets with [] -> invalid_arg "Metrics.histogram: no buckets" | _ :: _ -> ());
  let rec increasing = function
    | a :: (b :: _ as rest) ->
        if Float.compare a b >= 0 then
          invalid_arg "Metrics.histogram: bucket bounds must be strictly increasing"
        else increasing rest
    | [ _ ] | [] -> ()
  in
  increasing buckets;
  register t ~name ~labels
    ~make:(fun () ->
      let h =
        {
          upper = Array.of_list buckets;
          bucket_counts = Array.make (List.length buckets) 0;
          overflow = 0;
          h_count = 0;
          h_sum = 0.0;
        }
      in
      (M_histogram h, h))
    ~cast:(function M_histogram h -> Some h | M_counter _ | M_gauge _ | M_summary _ -> None)

let observe h v =
  let n = Array.length h.upper in
  let rec place i =
    if i >= n then h.overflow <- h.overflow + 1
    else if Float.compare v h.upper.(i) <= 0 then h.bucket_counts.(i) <- h.bucket_counts.(i) + 1
    else place (i + 1)
  in
  place 0;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v

let summary t ?(labels = []) name =
  register t ~name ~labels
    ~make:(fun () ->
      let s = { samples = Array.make 16 0.0; n = 0; s_sum = 0.0 } in
      (M_summary s, s))
    ~cast:(function M_summary s -> Some s | M_counter _ | M_gauge _ | M_histogram _ -> None)

let record s v =
  if s.n = Array.length s.samples then begin
    let bigger = Array.make (2 * s.n) 0.0 in
    Array.blit s.samples 0 bigger 0 s.n;
    s.samples <- bigger
  end;
  s.samples.(s.n) <- v;
  s.n <- s.n + 1;
  s.s_sum <- s.s_sum +. v

(* --- Snapshots --- *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { upper : float array; counts : int array; overflow : int; count : int; sum : float }
  | Summary of { count : int; sum : float; quantiles : (float * float) array }

type sample = { sample_name : string; sample_labels : labels; value : value }

(* The quantiles every summary exports; aligned with the percentile
   summaries the experiment harness prints. *)
let export_quantiles = [| 50.0; 90.0; 99.0 |]

let read = function
  | M_counter c -> Counter c.count
  | M_gauge g -> Gauge g.gauge_value
  | M_histogram h ->
      Histogram
        {
          upper = Array.copy h.upper;
          counts = Array.copy h.bucket_counts;
          overflow = h.overflow;
          count = h.h_count;
          sum = h.h_sum;
        }
  | M_summary s ->
      let quantiles =
        if s.n = 0 then [||]
        else
          let data = Array.sub s.samples 0 s.n in
          Array.map (fun p -> (p, Stats.percentile data p)) export_quantiles
      in
      Summary { count = s.n; sum = s.s_sum; quantiles }

let compare_label_lists a b =
  Stdlib.compare (a : (string * string) list) b

let compare_keys (na, la) (nb, lb) =
  let c = String.compare na nb in
  if c <> 0 then c else compare_label_lists la lb

let snapshot t =
  List.rev
    (Table.fold_sorted ~cmp:compare_keys
       (fun (name, labels) m acc -> { sample_name = name; sample_labels = labels; value = read m } :: acc)
       t.table [])
