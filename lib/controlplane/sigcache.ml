type t = {
  table : (string, bool) Hashtbl.t;
  mutable epoch : string;
  mutable hit_count : int;
  mutable miss_count : int;
}

let create () = { table = Hashtbl.create 1024; epoch = ""; hit_count = 0; miss_count = 0 }
let global = create ()

(* The key epoch is mixed into every cache key, so entries verified under
   a rotated-out trust root can never answer lookups made after the
   rotation — even if a stale reference to the old table survived. *)
let cache_key t pub ~msg ~signature =
  Scion_crypto.Sha256.digest
    (t.epoch ^ "\x00" ^ Scion_crypto.Schnorr.public_to_string pub ^ signature
   ^ Scion_crypto.Sha256.digest msg)

let set_epoch t epoch =
  if not (String.equal t.epoch epoch) then begin
    t.epoch <- epoch;
    (* The old epoch's entries are unreachable; drop them eagerly. *)
    Hashtbl.reset t.table
  end

let verify t pub ~msg ~signature =
  let key = cache_key t pub ~msg ~signature in
  match Hashtbl.find_opt t.table key with
  | Some v ->
      t.hit_count <- t.hit_count + 1;
      v
  | None ->
      t.miss_count <- t.miss_count + 1;
      let v = Scion_crypto.Schnorr.verify pub ~msg ~signature in
      Hashtbl.replace t.table key v;
      v

(* Cache lookups first, then one batched Schnorr pass over the misses.
   Schnorr.verify_batch is all-or-nothing, so a rejected batch falls back
   to per-signature verification to attribute the failure; either way each
   result lands in the cache, so re-receiving the same PCB is pure hits. *)
let verify_batch t items =
  let keyed =
    List.map
      (fun (pub, msg, signature) -> (cache_key t pub ~msg ~signature, pub, msg, signature))
      items
  in
  let pending = Hashtbl.create 16 in
  List.iter
    (fun (key, pub, msg, signature) ->
      if Hashtbl.mem t.table key || Hashtbl.mem pending key then
        t.hit_count <- t.hit_count + 1
      else begin
        t.miss_count <- t.miss_count + 1;
        Hashtbl.replace pending key (pub, msg, signature)
      end)
    keyed;
  if Hashtbl.length pending > 0 then begin
    let batch =
      Scion_util.Table.fold_sorted (fun _ (p, m, s) acc -> (p, m, s) :: acc) pending []
    in
    if Scion_crypto.Schnorr.verify_batch batch then
      Scion_util.Table.iter_sorted (fun key _ -> Hashtbl.replace t.table key true) pending
    else
      Scion_util.Table.iter_sorted
        (fun key (p, m, s) ->
          Hashtbl.replace t.table key (Scion_crypto.Schnorr.verify p ~msg:m ~signature:s))
        pending
  end;
  List.map
    (fun (key, _, _, _) ->
      match Hashtbl.find_opt t.table key with Some v -> v | None -> false)
    keyed

let hits t = t.hit_count
let misses t = t.miss_count

let clear t =
  Hashtbl.reset t.table;
  t.hit_count <- 0;
  t.miss_count <- 0
