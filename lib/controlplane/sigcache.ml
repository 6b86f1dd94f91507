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

type t = {
  table : bool Table.t;
  mutable epoch : string;
  mutable hit_count : int;
  mutable miss_count : int;
}

let create () = { table = Table.create 1024; epoch = ""; hit_count = 0; miss_count = 0 }
let global = create ()

let key pub ~msg ~signature =
  { Key.pub = Scion_crypto.Schnorr.public_to_string pub; signature; msg }

(* Verdicts proved under a rotated-out trust root must not answer lookups
   made after the rotation, so changing the epoch drops them all. *)
let set_epoch t epoch =
  if not (String.equal t.epoch epoch) then begin
    t.epoch <- epoch;
    Table.reset t.table
  end

let verify t pub ~msg ~signature =
  let k = key pub ~msg ~signature in
  match Table.find_opt t.table k with
  | Some v ->
      t.hit_count <- t.hit_count + 1;
      v
  | None ->
      t.miss_count <- t.miss_count + 1;
      let v = Scion_crypto.Schnorr.verify pub ~msg ~signature in
      Table.replace t.table k v;
      v

(* Cache lookups first, then one batched Schnorr pass over the misses in
   first-seen order. A miss claims its slot with a provisional [false] at
   once, so a duplicate later in the same batch counts as a hit; the
   verdicts below overwrite every claim. Schnorr.verify_batch is
   all-or-nothing, so a rejected batch falls back to per-signature
   verification to attribute the failure; either way each result lands in
   the cache, so re-receiving the same PCB is pure hits. *)
let verify_batch t items =
  let keys = List.map (fun (pub, msg, signature) -> key pub ~msg ~signature) items in
  let misses =
    List.fold_left2
      (fun misses k item ->
        if Table.mem t.table k then begin
          t.hit_count <- t.hit_count + 1;
          misses
        end
        else begin
          t.miss_count <- t.miss_count + 1;
          Table.replace t.table k false;
          (k, item) :: misses
        end)
      [] keys items
    |> List.rev
  in
  if Scion_crypto.Schnorr.verify_batch (List.map snd misses) then
    List.iter (fun (k, _) -> Table.replace t.table k true) misses
  else
    List.iter
      (fun (k, (p, m, s)) -> Table.replace t.table k (Scion_crypto.Schnorr.verify p ~msg:m ~signature:s))
      misses;
  List.map (fun k -> match Table.find_opt t.table k with Some v -> v | None -> false) keys

let hits t = t.hit_count
let misses t = t.miss_count

let clear t =
  Table.reset t.table;
  t.hit_count <- 0;
  t.miss_count <- 0
