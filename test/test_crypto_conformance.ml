(* Differential conformance suite for the fast-path crypto.

   The optimised code paths — Modp's flat-limb multiply and per-base comb
   tables, Schnorr's fixed-base powers of g, the fold-based exponent-field
   reduction, verify_batch's shared comb schedule and the copy-free
   SHA-256 with its incremental states and HMAC's prepared-key midstates
   — are each pinned against a naive reference implementation built from
   nothing but Ref_bignum's powers / Bignum.modulo (or, for the hash and
   the MAC, Ref_sha256 and a pad-concatenating HMAC over it), so a speed
   regression fix can never silently change the algebra or the bytes. The
   references deliberately restate the protocol (same key derivation, same
   nonce derivation, same challenge hash) instead of calling into
   lib/crypto's fast helpers. *)

open Scion_crypto

let p = Modp.p
let p1 = Bignum.sub p Bignum.one
let g3 = Bignum.of_int 3

(* --- naive references ------------------------------------------------- *)

let ref_pow b e = Ref_bignum.modpow b e p
let ref_reduce_exp x = Bignum.modulo x p1

(* Powers of g for the reference signer and verifier: every exponent they
   raise g to (a private scalar, a nonce, an [s]) is below p < 2^256. *)
let g3_table = lazy (Ref_bignum.fixed_base g3 p ~bits:256)
let ref_pow_g e = Ref_bignum.fixed_pow (Lazy.force g3_table) e

(* Reference HMAC-SHA256 (RFC 2104) as the RFC writes it: both pads are
   built in full and concatenated in front of the data, and every hash is
   a one-shot Ref_sha256 digest, so no midstate is involved. *)
let ref_hmac ~key msg =
  let key = if String.length key > 64 then Ref_sha256.digest key else key in
  let pad fill =
    String.init 64 (fun i -> Char.chr ((if i < String.length key then Char.code key.[i] else 0) lxor fill))
  in
  Ref_sha256.digest (pad 0x5C ^ Ref_sha256.digest (pad 0x36 ^ msg))

(* Reference private scalar for Schnorr.derive's seed: mirror
   scalar_of_bytes over the first block of the KDF's counter expansion. *)
let ref_scalar_of_seed seed =
  let raw = ref_hmac ~key:seed ("schnorr-key" ^ "\x01") in
  Bignum.add (Bignum.modulo (Bignum.of_bytes_be raw) (Bignum.sub p (Bignum.of_int 3))) Bignum.one

let ref_challenge ~r_bytes ~pub_bytes ~msg =
  ref_reduce_exp (Bignum.of_bytes_be (Ref_sha256.digest (r_bytes ^ pub_bytes ^ msg)))

let ref_sign ~x ~msg =
  let x_bytes = Bignum.to_bytes_be ~width:32 x in
  let pub_bytes = Bignum.to_bytes_be ~width:32 (ref_pow_g x) in
  let k =
    let k = ref_reduce_exp (Bignum.of_bytes_be (ref_hmac ~key:x_bytes ("nonce" ^ msg))) in
    if Bignum.is_zero k then Bignum.one else k
  in
  let r = ref_pow_g k in
  let r_bytes = Bignum.to_bytes_be ~width:32 r in
  let e = ref_challenge ~r_bytes ~pub_bytes ~msg in
  let s = ref_reduce_exp (Bignum.add k (Bignum.mul e x)) in
  r_bytes ^ Bignum.to_bytes_be ~width:32 s

let ref_verify ~pub_bytes ~msg ~signature =
  String.length signature = 64
  &&
  let r = Bignum.of_bytes_be (String.sub signature 0 32) in
  let s = Bignum.of_bytes_be (String.sub signature 32 32) in
  (not (Bignum.is_zero r))
  && Bignum.compare r p < 0
  && Bignum.compare s p1 < 0
  &&
  let e =
    ref_challenge ~r_bytes:(Bignum.to_bytes_be ~width:32 r) ~pub_bytes ~msg
  in
  let pub = Bignum.of_bytes_be pub_bytes in
  Ref_bignum.equal (ref_pow_g s) (Bignum.modulo (Bignum.mul r (ref_pow pub e)) p)

(* --- generators -------------------------------------------------------- *)

(* Wide pseudo-random Bignums from a short seed, so shrinking stays usable
   while the values still exercise all 256 bits. *)
let bignum_of_seed ?(wide = false) seed =
  let a = Sha256.digest ("a" ^ seed) in
  if wide then Bignum.of_bytes_be (a ^ Sha256.digest ("b" ^ seed)) else Bignum.of_bytes_be a

let seed_gen = QCheck.string_of_size (QCheck.Gen.int_range 0 24)

(* --- properties -------------------------------------------------------- *)

(* Comb exponents: the edges 0, 1 and p - 2, values with bit 255 forced
   set, and plain 256-bit values. *)
let exponent_of (kind, seed) =
  match kind with
  | 0 -> Bignum.zero
  | 1 -> Bignum.one
  | 2 -> Bignum.sub p (Bignum.of_int 2)
  | 3 -> Bignum.add (Bignum.modulo (bignum_of_seed seed) (Ref_bignum.pow2 255)) (Ref_bignum.pow2 255)
  | _ -> bignum_of_seed seed

let exponent_arb = QCheck.(pair (int_bound 4) seed_gen)

let qcheck_comb_pow_matches_naive =
  QCheck.Test.make ~name:"comb power = naive modpow" ~count:60
    QCheck.(pair seed_gen exponent_arb)
    (fun (bs, ek) ->
      let b = Bignum.modulo (bignum_of_seed bs) p in
      let e = exponent_of ek in
      Ref_bignum.equal
        (Ref_bignum.bignum_of_felem (Modp.comb_pow (Modp.comb (Ref_bignum.felem_of_bignum b)) e))
        (ref_pow b e))

let qcheck_comb_pow_multi_matches_naive =
  QCheck.Test.make ~name:"shared comb schedule = product of naive powers" ~count:25
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 3) (pair seed_gen exponent_arb))
        (list_of_size (Gen.int_range 0 3) (pair seed_gen (int_bound max_int))))
    (fun (combs, smalls) ->
      let base s = Bignum.modulo (bignum_of_seed s) p in
      let combs = List.map (fun (bs, ek) -> (base bs, exponent_of ek)) combs in
      let smalls = List.map (fun (bs, z) -> (base bs, z)) smalls in
      let expect =
        List.fold_left
          (fun acc (b, e) -> Bignum.modulo (Bignum.mul acc (ref_pow b e)) p)
          Bignum.one
          (combs @ List.map (fun (b, z) -> (b, Bignum.of_int z)) smalls)
      in
      Ref_bignum.equal
        (Ref_bignum.bignum_of_felem
           (Modp.comb_pow_multi
              (Array.of_list
                 (List.map (fun (b, e) -> (Modp.comb (Ref_bignum.felem_of_bignum b), e)) combs))
              (Array.of_list (List.map (fun (b, z) -> (Ref_bignum.felem_of_bignum b, z)) smalls))))
        expect)

let qcheck_wide_comb_pow_matches_naive =
  QCheck.Test.make ~name:"wide comb power = naive modpow" ~count:30
    QCheck.(pair seed_gen exponent_arb)
    (fun (bs, ek) ->
      let b = Bignum.modulo (bignum_of_seed bs) p in
      let e = exponent_of ek in
      Ref_bignum.equal
        (Ref_bignum.bignum_of_felem
           (Modp.wide_comb_pow (Modp.wide_comb (Ref_bignum.felem_of_bignum b)) e))
        (ref_pow b e))

let qcheck_mul_matches_naive =
  QCheck.Test.make ~name:"flat-limb Modp.mul = naive" ~count:200
    QCheck.(pair seed_gen seed_gen)
    (fun (xs, ys) ->
      let x = Bignum.modulo (bignum_of_seed xs) p in
      let y = Bignum.modulo (bignum_of_seed ys) p in
      Ref_bignum.equal
        (Ref_bignum.bignum_of_felem (Modp.mul (Ref_bignum.felem_of_bignum x) (Ref_bignum.felem_of_bignum y)))
        (Bignum.modulo (Bignum.mul x y) p))

(* Uniform operands almost never reach the reduction's rare branches: a
   second settle pass, or the final subtract of p. These operands do. *)
let test_mul_reduction_edges () =
  let two256 = Ref_bignum.pow2 256 in
  let big = Bignum.of_int in
  let operands =
    [ Bignum.zero; Bignum.one; big 2; Ref_bignum.pow2 255;
      Bignum.sub p Bignum.one (* = 2^256 - c - 1 *); Bignum.sub p (big 2);
      (* limbs 0..9 all 0xFFFFFF, limb 10 0xFFFE and 0 *)
      Bignum.sub (Bignum.sub two256 (Ref_bignum.pow2 240)) Bignum.one;
      Bignum.sub (Ref_bignum.pow2 240) Bignum.one ]
  in
  (* Pairs whose integer product lands in [p, 2^256): no fold, no
     overhang, only the final subtract. *)
  let in_range (x, y) =
    let xy = Bignum.mul x y in
    Bignum.compare xy p >= 0 && Bignum.compare xy two256 < 0
  in
  let above_p =
    List.concat_map
      (fun x ->
        let x = big x in
        let q, r = Ref_bignum.divmod p x in
        let lo = if Bignum.is_zero r then q else Bignum.add q Bignum.one in
        let hi = fst (Ref_bignum.divmod (Bignum.sub two256 Bignum.one) x) in
        List.filter in_range
          (List.map (fun y -> (x, y))
             [ lo; Bignum.add lo Bignum.one; Bignum.add lo (big 2); Bignum.sub hi (big 2);
               Bignum.sub hi Bignum.one; hi ]))
      [ 2; 3; 5; 977; 0x1000001; 0x1000003D1 ]
  in
  Alcotest.(check bool) "enough products in [p, 2^256)" true (List.length above_p >= 25);
  (* Products m * y = k * 2^256 - d with 2 <= k < m and 1 <= d <= (k - 1) * c:
     the first settle pass leaves 2^256 - d + (k - 1) * c >= 2^256, so a
     second pass must fold again. *)
  let c = Bignum.sub two256 p in
  let second_settle =
    List.concat_map
      (fun (m, k) ->
        let m = big m and top = Bignum.mul (big k) two256 in
        let d = Bignum.add (snd (Ref_bignum.divmod top m)) m in
        Alcotest.(check bool) "d within (k - 1) * c" true
          (Bignum.compare d (Bignum.mul (big (k - 1)) c) <= 0);
        [ (m, fst (Ref_bignum.divmod (Bignum.sub top d) m)) ])
      [ (3, 2); (5, 2); (5, 4); (257, 2); (257, 256) ]
  in
  List.iter
    (fun (_, y) -> Alcotest.(check bool) "second-settle operand below p" true (Bignum.compare y p < 0))
    second_settle;
  let check_mul (x, y) =
    let got =
      Ref_bignum.bignum_of_felem (Modp.mul (Ref_bignum.felem_of_bignum x) (Ref_bignum.felem_of_bignum y))
    in
    Alcotest.(check string)
      (Printf.sprintf "%s * %s" (Ref_bignum.to_hex x) (Ref_bignum.to_hex y))
      (Ref_bignum.to_hex (Bignum.modulo (Bignum.mul x y) p))
      (Ref_bignum.to_hex got)
  in
  List.iter (fun x -> List.iter (fun y -> check_mul (x, y)) operands) operands;
  List.iter (fun (x, y) -> check_mul (x, y); check_mul (y, x)) (above_p @ second_settle);
  (* Squaring: comb_pow with exponent 2 ends in one [sqr] of the base. *)
  List.iter
    (fun x ->
      let got = Modp.comb_pow (Modp.comb (Ref_bignum.felem_of_bignum x)) (big 2) in
      Alcotest.(check string)
        (Printf.sprintf "%s ^ 2" (Ref_bignum.to_hex x))
        (Ref_bignum.to_hex (Bignum.modulo (Bignum.mul x x) p))
        (Ref_bignum.to_hex (Ref_bignum.bignum_of_felem got)))
    (operands @ List.map snd (above_p @ second_settle))

let qcheck_reduce_exponent_matches_naive =
  QCheck.Test.make ~name:"fold reduce_exponent = modulo (p-1)" ~count:200 seed_gen (fun s ->
      let x = bignum_of_seed ~wide:true s in
      Ref_bignum.equal (Modp.reduce_exponent x) (ref_reduce_exp x))

let qcheck_comb_signing_matches_naive =
  QCheck.Test.make ~name:"comb-table sign = naive reference sign" ~count:40
    QCheck.(pair seed_gen seed_gen)
    (fun (seed, msg) ->
      let priv, pub = Schnorr.derive ~seed in
      let x = ref_scalar_of_seed seed in
      (* same key material... *)
      Schnorr.public_to_string pub = Bignum.to_bytes_be ~width:32 (ref_pow_g x)
      (* ...same signature bytes... *)
      && Schnorr.sign priv msg = ref_sign ~x ~msg
      (* ...and both verifiers agree on it *)
      && Schnorr.verify pub ~msg ~signature:(Schnorr.sign priv msg)
      && ref_verify ~pub_bytes:(Schnorr.public_to_string pub) ~msg
           ~signature:(Schnorr.sign priv msg))

let qcheck_verify_matches_naive_on_corrupted =
  QCheck.Test.make ~name:"fast verify = naive verify on corrupted input" ~count:60
    QCheck.(triple seed_gen seed_gen (pair (int_bound 63) (int_range 1 255)))
    (fun (seed, msg, (pos, xor)) ->
      let priv, pub = Schnorr.derive ~seed in
      let signature = Schnorr.sign priv msg in
      let bad =
        String.mapi
          (fun i c -> if i = pos then Char.chr (Char.code c lxor xor) else c)
          signature
      in
      Schnorr.verify pub ~msg ~signature:bad
      = ref_verify ~pub_bytes:(Schnorr.public_to_string pub) ~msg ~signature:bad)

let batch_of_seeds seeds =
  List.map
    (fun seed ->
      let priv, pub = Schnorr.derive ~seed in
      let msg = "beacon:" ^ seed in
      (pub, msg, Schnorr.sign priv msg))
    seeds

let qcheck_batch_all_valid =
  QCheck.Test.make ~name:"verify_batch accepts any all-valid batch" ~count:25
    QCheck.(list_of_size (Gen.int_range 0 6) seed_gen)
    (fun seeds -> Schnorr.verify_batch (batch_of_seeds seeds))

let qcheck_batch_of_one_equals_single =
  QCheck.Test.make ~name:"batch-of-one = single verify" ~count:40
    QCheck.(triple seed_gen seed_gen bool)
    (fun (seed, msg, corrupt) ->
      let priv, pub = Schnorr.derive ~seed in
      let signature =
        let s = Schnorr.sign priv msg in
        if corrupt then
          String.mapi (fun i c -> if i = 40 then Char.chr (Char.code c lxor 0x5a) else c) s
        else s
      in
      Schnorr.verify_batch [ (pub, msg, signature) ]
      = Schnorr.verify pub ~msg ~signature)

let qcheck_batch_rejects_any_forgery =
  QCheck.Test.make ~name:"any forged signature fails the batch" ~count:25
    QCheck.(triple (list_of_size (Gen.int_range 2 6) seed_gen) (int_bound 100) (int_bound 63))
    (fun (seeds, which, pos) ->
      let batch = batch_of_seeds seeds in
      let n = List.length batch in
      let which = which mod n in
      let forged =
        List.mapi
          (fun i (pub, msg, signature) ->
            if i = which then
              ( pub,
                msg,
                String.mapi
                  (fun j c -> if j = pos then Char.chr (Char.code c lxor 0x01) else c)
                  signature )
            else (pub, msg, signature))
          batch
      in
      not (Schnorr.verify_batch forged))

(* Each item is valid (0), has one corrupted byte (1) or is checked under
   another key (2). Under [warm] every key's comb table is built by an
   earlier single verify; otherwise the batch is the first to use the keys
   and builds their tables itself. *)
let qcheck_verify_matches_ref =
  QCheck.Test.make ~name:"single and batch verify = ref_verify, warm and cold keys" ~count:25
    QCheck.(pair (list_of_size (Gen.int_range 1 5) (pair seed_gen (int_bound 2))) bool)
    (fun (specs, warm) ->
      let items =
        List.map
          (fun (seed, mode) ->
            let priv, pub = Schnorr.derive ~seed in
            let msg = "beacon:" ^ seed in
            let signature = Schnorr.sign priv msg in
            match mode with
            | 0 -> (pub, msg, signature)
            | 1 -> (pub, msg, String.mapi (fun i c -> if i = 37 then Char.chr (Char.code c lxor 0x10) else c) signature)
            | _ -> (snd (Schnorr.derive ~seed:(seed ^ "'")), msg, signature))
          specs
      in
      let single () = List.map (fun (pub, msg, signature) -> Schnorr.verify pub ~msg ~signature) items in
      let warmed = if warm then single () else [] in
      let batch = Schnorr.verify_batch items in
      let expect =
        List.map
          (fun (pub, msg, signature) -> ref_verify ~pub_bytes:(Schnorr.public_to_string pub) ~msg ~signature)
          items
      in
      batch = List.for_all Fun.id expect
      && single () = expect
      && (warmed = [] || warmed = expect))

let test_batch_edge_cases () =
  Alcotest.(check bool) "empty batch is vacuously true" true (Schnorr.verify_batch []);
  let priv, pub = Schnorr.derive ~seed:"edge" in
  let msg = "m" in
  let signature = Schnorr.sign priv msg in
  Alcotest.(check bool) "valid pair" true (Schnorr.verify_batch [ (pub, msg, signature); (pub, msg, signature) ]);
  Alcotest.(check bool) "truncated signature fails batch" false
    (Schnorr.verify_batch [ (pub, msg, signature); (pub, msg, String.sub signature 0 63) ]);
  Alcotest.(check bool) "wrong-message entry fails batch" false
    (Schnorr.verify_batch [ (pub, msg, signature); (pub, "other", signature) ])

(* Batches of 2-12 items under 1-3 keys with 0-2 corrupted items (one
   signature byte flipped). With [shift], items 0 and 1 share a key and
   carry (s_0 + d, s_1 - d): each is invalid, but their product equation
   g^(s_0 + s_1) = r_0 r_1 pub^(e_0 + e_1) still holds, so a batch that
   multiplied the equations without coefficients would accept it. The
   reference checks the tampered items first, so a rejected batch costs
   one naive verification. *)
let qcheck_batch_mixed_keys_matches_ref =
  QCheck.Test.make ~name:"mixed-key batch = ref_verify" ~count:20
    QCheck.(
      quad (pair seed_gen (int_range 1 3))
        (list_of_size (Gen.int_range 2 12) (int_bound 2))
        (list_of_size (Gen.int_range 0 2) (pair (int_bound 11) (int_bound 63)))
        (pair bool seed_gen))
    (fun ((kseed, nkeys), key_of, corrupt, (shift, dseed)) ->
      let keys = Array.init nkeys (fun k -> Schnorr.derive ~seed:(Printf.sprintf "%s/%d" kseed k)) in
      let n = List.length key_of in
      let key_of = Array.of_list (List.map (fun k -> k mod nkeys) key_of) in
      if shift then key_of.(1) <- key_of.(0);
      let items =
        Array.init n (fun i ->
            let priv, pub = keys.(key_of.(i)) in
            let msg = Printf.sprintf "beacon %d:%s" i kseed in
            (pub, msg, Schnorr.sign priv msg))
      in
      let tampered = Array.make n false in
      let s_of i = let _, _, sg = items.(i) in Bignum.of_bytes_be (String.sub sg 32 32) in
      let with_s i s =
        let pub, msg, sg = items.(i) in
        items.(i) <- (pub, msg, String.sub sg 0 32 ^ Bignum.to_bytes_be ~width:32 s);
        tampered.(i) <- true
      in
      let cancelling =
        (not shift)
        ||
        let d = Bignum.add (Bignum.modulo (bignum_of_seed dseed) (Bignum.sub p1 Bignum.one)) Bignum.one in
        let s0 = s_of 0 and s1 = s_of 1 in
        with_s 0 (Bignum.modulo (Bignum.add s0 d) p1);
        with_s 1 (Bignum.modulo (Bignum.sub (Bignum.add s1 p1) d) p1);
        (* The shifted pair's product equation holds. *)
        let pub_bytes = Schnorr.public_to_string (snd keys.(key_of.(0))) in
        let r i = let _, _, sg = items.(i) in String.sub sg 0 32 in
        let e i = let _, msg, _ = items.(i) in ref_challenge ~r_bytes:(r i) ~pub_bytes ~msg in
        Ref_bignum.equal
          (ref_pow g3 (Bignum.add (s_of 0) (s_of 1)))
          (Bignum.modulo
             (Bignum.mul
                (Bignum.mul (Bignum.of_bytes_be (r 0)) (Bignum.of_bytes_be (r 1)))
                (ref_pow (Bignum.of_bytes_be pub_bytes) (Bignum.add (e 0) (e 1))))
             p)
      in
      List.iter
        (fun (i, pos) ->
          let i = i mod n in
          let pub, msg, sg = items.(i) in
          items.(i) <- (pub, msg, String.mapi (fun j c -> if j = pos then Char.chr (Char.code c lxor 0x01) else c) sg);
          tampered.(i) <- true)
        corrupt;
      let ordered =
        List.filter_map (fun i -> if tampered.(i) then Some items.(i) else None) (List.init n Fun.id)
        @ List.filter_map (fun i -> if tampered.(i) then None else Some items.(i)) (List.init n Fun.id)
      in
      let expect =
        List.for_all
          (fun (pub, msg, signature) -> ref_verify ~pub_bytes:(Schnorr.public_to_string pub) ~msg ~signature)
          ordered
      in
      cancelling && Schnorr.verify_batch (Array.to_list items) = expect)

(* --- SHA-256 against the streaming reference ---------------------------- *)

let padding_edges = [ 55; 56; 63; 64; 119; 120; 128 ]

let test_sha256_every_length () =
  for n = 0 to 300 do
    let msg = String.init n (fun i -> Char.chr (((i * 131) + n) land 0xFF)) in
    Alcotest.(check string) (Printf.sprintf "length %d" n) (Ref_sha256.digest msg) (Sha256.digest msg)
  done

let qcheck_sha256_matches_ref =
  QCheck.Test.make ~name:"copy-free digest = streaming reference" ~count:300
    (QCheck.string_of_size (QCheck.Gen.oneof [ QCheck.Gen.int_range 0 300; QCheck.Gen.oneofl padding_edges ]))
    (fun msg -> String.equal (Sha256.digest msg) (Ref_sha256.digest msg))

(* A message and the points it is cut at, so a state is fed in pieces:
   cuts land anywhere, block boundaries included, and may repeat (an empty
   feed). *)
let split_arb =
  let open QCheck.Gen in
  let gen =
    oneof [ int_range 0 300; oneofl padding_edges ] >>= fun n ->
    pair (string_size (return n)) (list_size (int_range 0 6) (int_range 0 n))
  in
  QCheck.make
    ~print:(fun (msg, cuts) ->
      Printf.sprintf "len %d cuts [%s]" (String.length msg) (String.concat "; " (List.map string_of_int cuts)))
    gen

let pieces msg cuts =
  let cuts = List.sort Int.compare cuts @ [ String.length msg ] in
  let _, rev =
    List.fold_left (fun (from, acc) c -> (c, String.sub msg from (c - from) :: acc)) (0, []) cuts
  in
  List.rev rev

(* The state is also copied halfway through its pieces, and both the copy
   and the original are finished on the same remaining input. *)
let qcheck_incremental_matches_ref =
  QCheck.Test.make ~name:"incremental digest over random feeds = streaming reference" ~count:300
    split_arb (fun (msg, cuts) ->
      let ps = pieces msg cuts in
      let half = List.length ps / 2 in
      let st = Sha256.init () in
      List.iteri (fun i piece -> if i < half then Sha256.feed st piece) ps;
      let fork = Sha256.copy st in
      List.iteri
        (fun i piece ->
          if i >= half then begin
            Sha256.feed st piece;
            Sha256.feed fork piece
          end)
        ps;
      let expect = Ref_sha256.digest msg in
      String.equal (Sha256.finish st) expect && String.equal (Sha256.finish fork) expect)

(* Two keys are prepared before either is used, so a state shared between
   prepared keys shows up as a wrong tag for one of them. *)
let qcheck_prepared_hmac_matches_ref =
  let key_gen =
    QCheck.Gen.(oneof [ int_range 0 200; oneofl [ 0; 63; 64; 65; 128; 200 ] ] >>= fun n -> string_size (return n))
  in
  QCheck.Test.make ~name:"prepared-key MAC over random feeds = pad-concatenating reference" ~count:300
    QCheck.(triple (make ~print:(fun k -> Printf.sprintf "key len %d" (String.length k)) key_gen)
              (make ~print:(fun k -> Printf.sprintf "key len %d" (String.length k)) key_gen) split_arb)
    (fun (key_a, key_b, (msg, cuts)) ->
      let a = Hmac.prepare key_a and b = Hmac.prepare key_b in
      let mac key prepared =
        let st = Hmac.start prepared in
        List.iter (Sha256.feed st) (pieces msg cuts);
        String.equal (Hmac.finish prepared st) (ref_hmac ~key msg)
      in
      mac key_a a && mac key_b b && mac key_a a)

let () =
  Alcotest.run "crypto-conformance"
    [
      ( "modp",
        [
          QCheck_alcotest.to_alcotest qcheck_mul_matches_naive;
          Alcotest.test_case "mul and sqr reduction edges" `Quick test_mul_reduction_edges;
          QCheck_alcotest.to_alcotest qcheck_comb_pow_matches_naive;
          QCheck_alcotest.to_alcotest qcheck_comb_pow_multi_matches_naive;
          QCheck_alcotest.to_alcotest qcheck_reduce_exponent_matches_naive;
          QCheck_alcotest.to_alcotest qcheck_wide_comb_pow_matches_naive;
        ] );
      ( "schnorr",
        [
          QCheck_alcotest.to_alcotest qcheck_comb_signing_matches_naive;
          QCheck_alcotest.to_alcotest qcheck_verify_matches_naive_on_corrupted;
          QCheck_alcotest.to_alcotest qcheck_verify_matches_ref;
        ] );
      ( "batch",
        [
          QCheck_alcotest.to_alcotest qcheck_batch_all_valid;
          QCheck_alcotest.to_alcotest qcheck_batch_of_one_equals_single;
          QCheck_alcotest.to_alcotest qcheck_batch_rejects_any_forgery;
          Alcotest.test_case "edge cases" `Quick test_batch_edge_cases;
          QCheck_alcotest.to_alcotest qcheck_batch_mixed_keys_matches_ref;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "every length 0-300" `Quick test_sha256_every_length;
          QCheck_alcotest.to_alcotest qcheck_sha256_matches_ref;
          QCheck_alcotest.to_alcotest qcheck_incremental_matches_ref;
        ] );
      ("hmac", [ QCheck_alcotest.to_alcotest qcheck_prepared_hmac_matches_ref ]);
    ]
