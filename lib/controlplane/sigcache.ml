(* A verdict is keyed by the exact (issuer key, signature, message) bytes.
   The table hashes only the 64-byte signature and compares all three
   strings on a bucket match, so a hit costs one short hash and a memcmp,
   and no other message, key or signature can ever answer for a cached
   verdict. *)
module Key = struct
  type t = { pub : string; signature : string; msg : string }

  let equal a b =
    String.equal a.signature b.signature && String.equal a.msg b.msg && String.equal a.pub b.pub

  let hash k = Hashtbl.hash k.signature
end

module Table = Hashtbl.Make (Key)

(* [Proved] is a verdict {!prove} established ahead of its first lookup.
   That lookup counts as the miss it would have been and turns it into
   [Valid]. All three are constant constructors, so storing one allocates
   nothing beyond the table binding. *)
type verdict = Valid | Invalid | Proved

(* Two generations: lookups and inserts land in [current]; an entry found
   only in [previous] moves to [current]. {!next_generation} drops
   [previous], so whatever was neither inserted nor read between two calls
   is gone after the second. *)
type t = {
  mutable current : verdict Table.t;
  mutable previous : verdict Table.t;
  mutable epoch : string;
  mutable hit_count : int;
  mutable miss_count : int;
}

(* [previous] starts small: it only ever holds what [current] held, and
   grows in place when the two swap. *)
let create () =
  { current = Table.create 1024; previous = Table.create 16; epoch = ""; hit_count = 0; miss_count = 0 }

(* The process-wide tally: every other cache adds its counts here and no
   mesh reads or writes its table. *)
let global = create ()

let count_hit t =
  t.hit_count <- t.hit_count + 1;
  if t != global then global.hit_count <- global.hit_count + 1

let count_miss t =
  t.miss_count <- t.miss_count + 1;
  if t != global then global.miss_count <- global.miss_count + 1

let key pub ~msg ~signature =
  { Key.pub = Scion_crypto.Schnorr.public_to_string pub; signature; msg }

let find t k =
  match Table.find_opt t.current k with
  | Some _ as v -> v
  | None -> (
      match Table.find_opt t.previous k with
      | Some v as found ->
          Table.remove t.previous k;
          Table.replace t.current k v;
          found
      | None -> None)

let mem t k = Table.mem t.current k || Table.mem t.previous k

let next_generation t =
  let dropped = t.previous in
  Table.clear dropped;
  t.previous <- t.current;
  t.current <- dropped

let reset_tables t =
  Table.reset t.current;
  Table.reset t.previous

(* Verdicts proved under a rotated-out trust root must not answer lookups
   made after the rotation, so changing the epoch drops them all. *)
let set_epoch t epoch =
  if not (String.equal t.epoch epoch) then begin
    t.epoch <- epoch;
    reset_tables t
  end

let verify t pub ~msg ~signature =
  let k = key pub ~msg ~signature in
  match find t k with
  | Some Valid ->
      count_hit t;
      true
  | Some Invalid ->
      count_hit t;
      false
  | Some Proved ->
      count_miss t;
      Table.replace t.current k Valid;
      true
  | None ->
      count_miss t;
      let v = Scion_crypto.Schnorr.verify pub ~msg ~signature in
      Table.replace t.current k (if v then Valid else Invalid);
      v

(* Only the items the table has never seen are checked, first-seen and
   once each. Nothing is counted, and a rejected batch records nothing,
   so every later lookup pays exactly what it would have without this
   call. *)
let prove t items =
  let fresh =
    List.fold_left
      (fun fresh (pub, msg, signature) ->
        let k = key pub ~msg ~signature in
        if mem t k || List.exists (fun (k', _) -> Key.equal k k') fresh then fresh
        else (k, (pub, msg, signature)) :: fresh)
      [] items
    |> List.rev
  in
  match fresh with
  | [] -> ()
  | _ :: _ ->
      if Scion_crypto.Schnorr.verify_batch (List.map snd fresh) then
        List.iter (fun (k, _) -> Table.replace t.current k Proved) fresh

let hits t = t.hit_count
let misses t = t.miss_count

let clear t =
  reset_tables t;
  t.hit_count <- 0;
  t.miss_count <- 0
