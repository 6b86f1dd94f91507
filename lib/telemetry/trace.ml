(* Trace spans, timestamped by the caller (simulated clock), serialised as
   JSONL. Records carry a monotonically increasing sequence number assigned
   at creation so the chronological order of a run is reconstructible even
   when many records share one simulated instant. *)

type value = Str of string | Int of int | Float of float | Bool of bool

type record = {
  seq : int;
  name : string;
  start_time : float;
  end_time : float;
  fields : (string * value) list;
}

type t = {
  mutable records : record list;  (* newest first *)
  mutable next_seq : int;
}

type span = { tr : t; span_seq : int; span_name : string; started : float; mutable closed : bool }

let create () = { records = []; next_seq = 0 }

let norm_fields fields =
  List.sort (fun (a, _) (b, _) -> String.compare a b) fields

let span t ~now name =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  { tr = t; span_seq = seq; span_name = name; started = now; closed = false }

let finish sp ~now ?(fields = []) () =
  if sp.closed then invalid_arg "Trace.finish: span already finished";
  sp.closed <- true;
  let t = sp.tr in
  t.records <-
    {
      seq = sp.span_seq;
      name = sp.span_name;
      start_time = sp.started;
      end_time = now;
      fields = norm_fields fields;
    }
    :: t.records

let value_to_json = function
  | Str s -> "\"" ^ Json.escape s ^ "\""
  | Int i -> string_of_int i
  | Float f -> Json.float_repr f
  | Bool b -> if b then "true" else "false"

let record_to_json r =
  let buf = Buffer.create 96 in
  Buffer.add_string buf (Printf.sprintf "{\"seq\":%d,\"name\":\"%s\",\"t\":%s" r.seq (Json.escape r.name) (Json.float_repr r.start_time));
  Buffer.add_string buf
    (Printf.sprintf ",\"end\":%s,\"dur\":%s" (Json.float_repr r.end_time)
       (Json.float_repr (r.end_time -. r.start_time)));
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf ",\"%s\":%s" (Json.escape k) (value_to_json v)))
    r.fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let to_jsonl t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun r ->
      Buffer.add_string buf (record_to_json r);
      Buffer.add_char buf '\n')
    (List.rev t.records);
  Buffer.contents buf

