module Rng = Scion_util.Rng

type 'op event = { at_s : float; op : 'op }

module type S = sig
  type op
  type nonrec event = op event
  type t

  val elaborate : t -> rng:Rng.t -> event list
  val nothing : t
  val at : float -> op list -> t
  val every : period_s:float -> until_s:float -> float -> op list -> t
  val seq : t list -> t
  val ( ++ ) : t -> t -> t
end

module Make (Op : sig
  type t

  val name : string
end) =
struct
  type nonrec event = Op.t event
  type t = Rng.t -> event list

  let invalid combinator fmt =
    Printf.ksprintf (fun msg -> invalid_arg (Printf.sprintf "%s.%s: %s" Op.name combinator msg)) fmt

  let check_time name v =
    if not (Float.is_finite v) || v < 0.0 then
      invalid name "time must be finite and >= 0 (got %g)" v

  let check_count name v = if v < 0 then invalid name "count must be >= 0 (got %d)" v

  let check_period name v =
    if not (Float.is_finite v) || v <= 0.0 then invalid name "period must be > 0 (got %g)" v

  let jitter name jitter_s =
    if not (Float.is_finite jitter_s) || jitter_s < 0.0 then
      invalid name "jitter must be finite and >= 0 (got %g)" jitter_s;
    fun rng -> if jitter_s > 0.0 then Rng.float rng jitter_s else 0.0

  let nothing : t = fun _rng -> []

  let at t ops =
    check_time "at" t;
    fun _rng -> List.map (fun op -> { at_s = t; op }) ops

  let every ~period_s ~until_s start ops =
    check_time "every" start;
    check_time "every" until_s;
    check_period "every" period_s;
    fun _rng ->
      let rec go t acc =
        if t >= until_s then List.rev acc
        else go (t +. period_s) (List.rev_append (List.map (fun op -> { at_s = t; op }) ops) acc)
      in
      go start []

  let span name ~from_s ~to_s first last =
    check_time name from_s;
    check_time name to_s;
    if to_s < from_s then invalid name "window ends (%g) before it starts (%g)" to_s from_s;
    fun _rng -> [ { at_s = from_s; op = first }; { at_s = to_s; op = last } ]

  let seq campaigns rng =
    let events = List.concat_map (fun c -> c rng) campaigns in
    (* Stable sort keeps combinator order for simultaneous events. *)
    List.stable_sort (fun a b -> Float.compare a.at_s b.at_s) events

  let ( ++ ) a b = seq [ a; b ]
  let elaborate t ~rng = seq [ t ] rng
end
