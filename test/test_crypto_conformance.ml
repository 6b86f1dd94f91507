(* Differential conformance suite for the fast-path crypto (PR 8).

   The optimised code paths — Modp's flat-limb windowed exponentiation,
   Schnorr's comb-table fixed-base powers, the fold-based exponent-field
   reduction, and verify_batch's Straus multi-exponentiation — are each
   pinned against a naive reference implementation built from nothing but
   Ref_bignum.modpow / Bignum.modulo, so a speed regression fix can never
   silently change the algebra. The references deliberately restate the
   protocol (same nonce derivation, same challenge hash) instead of calling
   into lib/crypto's fast helpers. *)

open Scion_crypto

let p = Modp.p
let p1 = Bignum.sub p Bignum.one
let g3 = Bignum.of_int 3

(* --- naive references ------------------------------------------------- *)

let ref_pow b e = Ref_bignum.modpow b e p
let ref_reduce_exp x = Bignum.modulo x p1

(* Reference private scalar for Schnorr.derive's seed: mirror
   scalar_of_bytes over the same KDF output. *)
let ref_scalar_of_seed seed =
  let raw = Hmac.kdf ~secret:seed ~info:"schnorr-key" 32 in
  Bignum.add (Bignum.modulo (Bignum.of_bytes_be raw) (Bignum.sub p (Bignum.of_int 3))) Bignum.one

let ref_challenge ~r_bytes ~pub_bytes ~msg =
  ref_reduce_exp (Bignum.of_bytes_be (Sha256.digest (r_bytes ^ pub_bytes ^ msg)))

let ref_sign ~x ~msg =
  let x_bytes = Bignum.to_bytes_be ~width:32 x in
  let pub_bytes = Bignum.to_bytes_be ~width:32 (ref_pow g3 x) in
  let k =
    let k = ref_reduce_exp (Bignum.of_bytes_be (Hmac.sha256 ~key:x_bytes ("nonce" ^ msg))) in
    if Bignum.is_zero k then Bignum.one else k
  in
  let r = ref_pow g3 k in
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
  Ref_bignum.equal (ref_pow g3 s) (Bignum.modulo (Bignum.mul r (ref_pow pub e)) p)

(* --- generators -------------------------------------------------------- *)

(* Wide pseudo-random Bignums from a short seed, so shrinking stays usable
   while the values still exercise all 256 bits. *)
let bignum_of_seed ?(wide = false) seed =
  let a = Sha256.digest ("a" ^ seed) in
  if wide then Bignum.of_bytes_be (a ^ Sha256.digest ("b" ^ seed)) else Bignum.of_bytes_be a

let seed_gen = QCheck.string_of_size (QCheck.Gen.int_range 0 24)

(* --- properties -------------------------------------------------------- *)

let qcheck_windowed_pow_matches_naive =
  QCheck.Test.make ~name:"windowed Modp.pow = naive modpow" ~count:60
    QCheck.(pair seed_gen seed_gen)
    (fun (bs, es) ->
      let b = Bignum.modulo (bignum_of_seed bs) p in
      let e = bignum_of_seed ~wide:true es in
      Ref_bignum.equal (Ref_bignum.bignum_of_felem (Modp.pow (Ref_bignum.felem_of_bignum b) e)) (ref_pow b e))

let qcheck_mul_matches_naive =
  QCheck.Test.make ~name:"flat-limb Modp.mul = naive" ~count:200
    QCheck.(pair seed_gen seed_gen)
    (fun (xs, ys) ->
      let x = Bignum.modulo (bignum_of_seed xs) p in
      let y = Bignum.modulo (bignum_of_seed ys) p in
      Ref_bignum.equal
        (Ref_bignum.bignum_of_felem (Modp.mul (Ref_bignum.felem_of_bignum x) (Ref_bignum.felem_of_bignum y)))
        (Bignum.modulo (Bignum.mul x y) p))

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
      Schnorr.public_to_string pub = Bignum.to_bytes_be ~width:32 (ref_pow g3 x)
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

let () =
  Alcotest.run "crypto-conformance"
    [
      ( "modp",
        [
          QCheck_alcotest.to_alcotest qcheck_mul_matches_naive;
          QCheck_alcotest.to_alcotest qcheck_windowed_pow_matches_naive;
          QCheck_alcotest.to_alcotest qcheck_reduce_exponent_matches_naive;
        ] );
      ( "schnorr",
        [
          QCheck_alcotest.to_alcotest qcheck_comb_signing_matches_naive;
          QCheck_alcotest.to_alcotest qcheck_verify_matches_naive_on_corrupted;
        ] );
      ( "batch",
        [
          QCheck_alcotest.to_alcotest qcheck_batch_all_valid;
          QCheck_alcotest.to_alcotest qcheck_batch_of_one_equals_single;
          QCheck_alcotest.to_alcotest qcheck_batch_rejects_any_forgery;
          Alcotest.test_case "edge cases" `Quick test_batch_edge_cases;
        ] );
    ]
