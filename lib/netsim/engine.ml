(* Binary min-heap keyed by (time, seq); seq gives FIFO order for events
   scheduled at the same instant. *)

type event = { time : float; seq : int; action : unit -> unit }

type t = {
  mutable heap : event array;
  mutable size : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable processed : int;
}

let create () =
  {
    heap = Array.make 64 { time = 0.0; seq = 0; action = ignore };
    size = 0;
    clock = 0.0;
    next_seq = 0;
    processed = 0;
  }

let now t = t.clock

(* scion-lint: allow float-eq -- exact equality intended: same-timestamp events tie-break on seq *)
let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * Array.length t.heap) t.heap.(0) in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end

let push t ev =
  grow t;
  let i = ref t.size in
  t.size <- t.size + 1;
  t.heap.(!i) <- ev;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t.heap.(!i) t.heap.(parent) then begin
      let tmp = t.heap.(parent) in
      t.heap.(parent) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let pop t =
  assert (t.size > 0);
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.heap.(0) <- t.heap.(t.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
      if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = t.heap.(!smallest) in
        t.heap.(!smallest) <- t.heap.(!i);
        t.heap.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done
  end;
  top

let schedule_at t ~time action =
  if time < t.clock then
    invalid_arg (Printf.sprintf "Engine.schedule_at: %.6f is in the past (now %.6f)" time t.clock);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push t { time; seq; action }

let events_processed t = t.processed

let step t =
  if t.size = 0 then false
  else begin
    let ev = pop t in
    t.clock <- ev.time;
    ev.action ();
    t.processed <- t.processed + 1;
    true
  end

let run ?until t =
  let continue = ref true in
  while !continue do
    if t.size = 0 then continue := false
    else begin
      match until with
      | Some limit when t.heap.(0).time > limit ->
          t.clock <- limit;
          continue := false
      | _ -> ignore (step t)
    end
  done

