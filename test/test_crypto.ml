open Scion_crypto

(* --- SHA-256: NIST FIPS 180-4 vectors --- *)

let test_sha256_vectors () =
  let cases =
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ]
  in
  List.iter
    (fun (msg, expect) -> Alcotest.(check string) msg expect (Hex.encode (Sha256.digest msg)))
    cases

let test_sha256_million_a () =
  Alcotest.(check string) "1M a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Hex.encode (Sha256.digest (String.make 1_000_000 'a')))

(* --- HMAC: RFC 4231 vectors --- *)

(* Through the prepared-key path that signing uses: pad midstates, then
   one state per MAC. *)
let hmac ~key msg =
  let key = Hmac.prepare key in
  let st = Hmac.start key in
  Sha256.feed st msg;
  Hmac.finish key st

let test_hmac_rfc4231 () =
  let tag1 = hmac ~key:(String.make 20 '\x0b') "Hi There" in
  Alcotest.(check string) "tc1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" (Hex.encode tag1);
  let tag2 = hmac ~key:"Jefe" "what do ya want for nothing?" in
  Alcotest.(check string) "tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" (Hex.encode tag2);
  (* tc3: 20 x 0xaa key, 50 x 0xdd data *)
  let tag3 = hmac ~key:(String.make 20 '\xaa') (String.make 50 '\xdd') in
  Alcotest.(check string) "tc3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" (Hex.encode tag3);
  (* tc6: 131-byte key (forces key hashing) *)
  let tag6 =
    hmac ~key:(String.make 131 '\xaa') "Test Using Larger Than Block-Size Key - Hash Key First"
  in
  Alcotest.(check string) "tc6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" (Hex.encode tag6)

let test_kdf_properties () =
  let a = Hmac.kdf ~secret:"s" ~info:"x" 48 in
  let b = Hmac.kdf ~secret:"s" ~info:"x" 48 in
  let c = Hmac.kdf ~secret:"s" ~info:"y" 48 in
  Alcotest.(check int) "length" 48 (String.length a);
  Alcotest.(check string) "deterministic" a b;
  Alcotest.(check bool) "info matters" true (a <> c);
  Alcotest.(check string) "prefix stable" (String.sub a 0 16) (Hmac.kdf ~secret:"s" ~info:"x" 16)

(* --- AES-128: FIPS 197 appendix C.1 --- *)

let test_aes128_fips197 () =
  let key = Aes128.expand_key (Hex.decode "000102030405060708090a0b0c0d0e0f") in
  let ct = Aes128.encrypt_block key (Hex.decode "00112233445566778899aabbccddeeff") in
  Alcotest.(check string) "fips197" "69c4e0d86a7b0430d8cdb78070b4c55a" (Hex.encode ct)

let test_aes128_sp800_38a () =
  (* SP 800-38A F.1.1 ECB-AES128 block #1 *)
  let key = Aes128.expand_key (Hex.decode "2b7e151628aed2a6abf7158809cf4f3c") in
  let ct = Aes128.encrypt_block key (Hex.decode "6bc1bee22e409f96e93d7e117393172a") in
  Alcotest.(check string) "sp800-38a" "3ad77bb40d7a3660a89ecaf32466ef97" (Hex.encode ct)

let test_aes128_bad_sizes () =
  Alcotest.check_raises "short key" (Invalid_argument "Aes128.expand_key: key must be 16 bytes")
    (fun () -> ignore (Aes128.expand_key "short"));
  let key = Aes128.expand_key (String.make 16 'k') in
  Alcotest.check_raises "short block"
    (Invalid_argument "Aes128.encrypt_block: block must be 16 bytes") (fun () ->
      ignore (Aes128.encrypt_block key "tiny"))

(* --- CMAC: RFC 4493 vectors --- *)

let rfc4493_key = "2b7e151628aed2a6abf7158809cf4f3c"

let rfc4493_msg64 =
  "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
  ^ "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"

let test_cmac_rfc4493 () =
  let key = Cmac.of_string (Hex.decode rfc4493_key) in
  let check name msg expect =
    Alcotest.(check string) name expect (Hex.encode (Cmac.mac_truncated key (Hex.decode msg) 16))
  in
  check "empty" "" "bb1d6929e95937287fa37d129b756746";
  check "16 bytes" "6bc1bee22e409f96e93d7e117393172a" "070a16b46b4d4144f79bdd9dd04a287c";
  check "40 bytes" (String.sub rfc4493_msg64 0 80) "dfa66747de9ae63030ca32611497c827";
  check "64 bytes" rfc4493_msg64 "51f0bebf7e3b9d92fc49741779363cfe"

let test_cmac_truncated_verify () =
  let key = Cmac.of_string (String.make 16 '\x42') in
  let msg = "hop field bytes" in
  let tag6 = Cmac.mac_truncated key msg 6 in
  Alcotest.(check int) "6 bytes" 6 (String.length tag6);
  Alcotest.(check bool) "verifies" true (Cmac.verify key ~msg ~tag:tag6);
  Alcotest.(check bool) "rejects other msg" false (Cmac.verify key ~msg:"hop field bytez" ~tag:tag6);
  Alcotest.(check bool) "rejects empty tag" false (Cmac.verify key ~msg ~tag:"");
  let bad = String.mapi (fun i c -> if i = 5 then Char.chr (Char.code c lxor 0x80) else c) tag6 in
  Alcotest.(check bool) "rejects tampered" false (Cmac.verify key ~msg ~tag:bad)

(* --- Bignum --- *)

let bn = Bignum.of_int

let test_bignum_basic () =
  Alcotest.(check bool) "zero" true (Bignum.is_zero Bignum.zero);
  Alcotest.(check int) "roundtrip" 123456789 (Ref_bignum.to_int (bn 123456789));
  Alcotest.(check int) "add" 579 (Ref_bignum.to_int (Bignum.add (bn 123) (bn 456)));
  Alcotest.(check int) "sub" 333 (Ref_bignum.to_int (Bignum.sub (bn 456) (bn 123)));
  Alcotest.(check int) "mul" 56088 (Ref_bignum.to_int (Bignum.mul (bn 123) (bn 456)));
  Alcotest.(check int) "bitlen" 7 (Ref_bignum.bit_length (bn 100));
  Alcotest.(check bool) "odd" true (Ref_bignum.is_odd (bn 7));
  Alcotest.(check bool) "even" false (Ref_bignum.is_odd (bn 8))

let test_bignum_sub_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Bignum.sub: negative result") (fun () ->
      ignore (Bignum.sub (bn 1) (bn 2)))

let test_bignum_divmod () =
  let q, r = Ref_bignum.divmod (bn 1000003) (bn 997) in
  Alcotest.(check int) "q" 1003 (Ref_bignum.to_int q);
  Alcotest.(check int) "r" 12 (Ref_bignum.to_int r);
  Alcotest.(check int) "modulo" 12 (Ref_bignum.to_int (Bignum.modulo (bn 1000003) (bn 997)));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bignum.modulo (bn 1) Bignum.zero))

let test_bignum_hex () =
  let v = Ref_bignum.of_hex "deadbeef0123456789" in
  Alcotest.(check string) "hex roundtrip" "deadbeef0123456789" (Ref_bignum.to_hex v);
  Alcotest.(check string) "padded bytes" "\x00\x00\x01" (Bignum.to_bytes_be ~width:3 (bn 1))

let test_bignum_modpow_fermat () =
  (* Fermat: a^(p-1) === 1 mod p for prime p = 1_000_000_007. *)
  let p = bn 1_000_000_007 in
  let a = bn 123456789 in
  Alcotest.(check int) "fermat" 1 (Ref_bignum.to_int (Ref_bignum.modpow a (Bignum.sub p Bignum.one) p))

let bounded_int = QCheck.int_bound 1_000_000

let qcheck_bignum_add_matches_int =
  QCheck.Test.make ~name:"bignum add matches int" ~count:500 QCheck.(pair bounded_int bounded_int)
    (fun (a, b) -> Ref_bignum.to_int (Bignum.add (bn a) (bn b)) = a + b)

let qcheck_bignum_mul_matches_int =
  QCheck.Test.make ~name:"bignum mul matches int" ~count:500 QCheck.(pair bounded_int bounded_int)
    (fun (a, b) -> Ref_bignum.to_int (Bignum.mul (bn a) (bn b)) = a * b)

let qcheck_bignum_divmod_identity =
  QCheck.Test.make ~name:"divmod identity a = q*b + r" ~count:300
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 1 24)) (string_of_size (QCheck.Gen.int_range 1 12)))
    (fun (abytes, bbytes) ->
      let a = Bignum.of_bytes_be abytes and b = Bignum.of_bytes_be bbytes in
      QCheck.assume (not (Bignum.is_zero b));
      let q, r = Ref_bignum.divmod a b in
      Ref_bignum.equal r (Bignum.modulo a b)
      && Ref_bignum.equal a (Bignum.add (Bignum.mul q b) r)
      && Bignum.compare r b < 0)

(* Moduli of 1 to 20 bytes (an odd byte count leaves a top limb below
   2^8), and inputs below m^2, half of them m^2 - 1, the widest a Barrett
   reduction takes. *)
let qcheck_barrett_matches_modulo =
  QCheck.Test.make ~name:"barrett reduce = modulo" ~count:300
    QCheck.(triple (string_of_size (QCheck.Gen.int_range 1 20)) (string_of_size (QCheck.Gen.return 40)) bool)
    (fun (mbytes, xbytes, widest) ->
      let m = Bignum.of_bytes_be mbytes in
      QCheck.assume (not (Bignum.is_zero m));
      let m2 = Bignum.mul m m in
      let x = if widest then Bignum.sub m2 Bignum.one else Bignum.modulo (Bignum.of_bytes_be xbytes) m2 in
      Ref_bignum.equal (Ref_bignum.reduce (Ref_bignum.barrett m) x) (Bignum.modulo x m))

let qcheck_bignum_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes_be roundtrip" ~count:300
    (QCheck.string_of_size (QCheck.Gen.int_range 0 40))
    (fun s ->
      let v = Bignum.of_bytes_be s in
      Ref_bignum.equal v (Bignum.of_bytes_be (Bignum.to_bytes_be ~width:48 v)))

let qcheck_bignum_shift_inverse =
  QCheck.Test.make ~name:"shift left/right inverse" ~count:300
    QCheck.(pair bounded_int (int_bound 60))
    (fun (a, n) -> Ref_bignum.equal (bn a) (Ref_bignum.shift_right (Ref_bignum.shift_left (bn a) n) n))

(* --- Modp --- *)

let random_felem_gen =
  QCheck.map (fun s -> Ref_bignum.felem_of_bignum (Bignum.of_bytes_be s)) (QCheck.string_of_size (QCheck.Gen.return 32))

let qcheck_modp_mul_matches_generic =
  QCheck.Test.make ~name:"modp mul matches generic" ~count:100
    QCheck.(pair random_felem_gen random_felem_gen)
    (fun (a, b) ->
      let expect =
        Bignum.modulo (Bignum.mul (Ref_bignum.bignum_of_felem a) (Ref_bignum.bignum_of_felem b)) Modp.p
      in
      Ref_bignum.equal (Ref_bignum.bignum_of_felem (Modp.mul a b)) expect)

let test_modp_prime_miller_rabin () =
  (* Miller-Rabin with fixed bases; enough to catch an incorrectly encoded
     modulus, which is what this test defends against. *)
  let p = Modp.p in
  let pm1 = Bignum.sub p Bignum.one in
  let rec split d s = if Ref_bignum.is_odd d then (d, s) else split (Ref_bignum.shift_right d 1) (s + 1) in
  let d, s = split pm1 0 in
  let witness a =
    let x = ref (Ref_bignum.modpow (bn a) d p) in
    if Ref_bignum.equal !x Bignum.one || Ref_bignum.equal !x pm1 then false
    else begin
      let composite = ref true in
      for _ = 1 to s - 1 do
        if !composite then begin
          x := Bignum.modulo (Bignum.mul !x !x) p;
          if Ref_bignum.equal !x pm1 then composite := false
        end
      done;
      !composite
    end
  in
  List.iter
    (fun a -> Alcotest.(check bool) (Printf.sprintf "base %d" a) false (witness a))
    [ 2; 3; 5; 7; 11; 13 ]

let test_modp_pow_small () =
  let three = Modp.comb (Modp.of_int 3) in
  Alcotest.(check bool) "3^4 = 81" true (Modp.equal (Modp.comb_pow three (bn 4)) (Modp.of_int 81));
  Alcotest.(check bool) "x^0 = 1" true (Modp.equal (Modp.comb_pow three Bignum.zero) (Modp.of_int 1))

let test_modp_bytes () =
  let x = Modp.of_int 258 in
  let b = Modp.to_bytes x in
  Alcotest.(check int) "32 bytes" 32 (String.length b);
  (match Modp.of_bytes b with
  | Some y -> Alcotest.(check bool) "roundtrip" true (Modp.equal x y)
  | None -> Alcotest.fail "of_bytes failed");
  Alcotest.(check bool) "rejects >= p" true (Modp.of_bytes (String.make 32 '\xff') = None)

(* --- Schnorr --- *)

let test_schnorr_sign_verify () =
  let priv, pub = Schnorr.derive ~seed:"as64-559" in
  let msg = "path segment payload" in
  let signature = Schnorr.sign priv msg in
  Alcotest.(check int) "size" 64 (String.length signature);
  Alcotest.(check bool) "verifies" true (Schnorr.verify pub ~msg ~signature);
  Alcotest.(check bool) "wrong msg" false (Schnorr.verify pub ~msg:"other" ~signature);
  let _, pub2 = Schnorr.derive ~seed:"as71-88" in
  Alcotest.(check bool) "wrong key" false (Schnorr.verify pub2 ~msg ~signature)

let test_schnorr_deterministic () =
  let priv, _ = Schnorr.derive ~seed:"seed" in
  Alcotest.(check string) "same sig" (Schnorr.sign priv "m") (Schnorr.sign priv "m");
  Alcotest.(check bool) "different msgs differ" true (Schnorr.sign priv "m1" <> Schnorr.sign priv "m2")

let test_schnorr_tamper_rejected () =
  let priv, pub = Schnorr.derive ~seed:"x" in
  let signature = Schnorr.sign priv "msg" in
  for i = 0 to 64 - 1 do
    let bad =
      String.mapi (fun j c -> if i = j then Char.chr (Char.code c lxor 0x01) else c) signature
    in
    if Schnorr.verify pub ~msg:"msg" ~signature:bad then
      Alcotest.fail (Printf.sprintf "tampered byte %d accepted" i)
  done

let test_schnorr_garbage_rejected () =
  let _, pub = Schnorr.derive ~seed:"x" in
  Alcotest.(check bool) "empty" false (Schnorr.verify pub ~msg:"m" ~signature:"");
  Alcotest.(check bool) "short" false (Schnorr.verify pub ~msg:"m" ~signature:(String.make 10 'a'));
  Alcotest.(check bool) "all ff" false
    (Schnorr.verify pub ~msg:"m" ~signature:(String.make 64 '\xff'));
  Alcotest.(check bool) "zero R" false
    (Schnorr.verify pub ~msg:"m" ~signature:(String.make 64 '\x00'))

let test_schnorr_pub_roundtrip () =
  (* The certificate encoding of a public key is a canonical field element:
     it decodes and re-encodes to the same 32 bytes. *)
  let _, pub = Schnorr.derive ~seed:"roundtrip" in
  let s = Schnorr.public_to_string pub in
  Alcotest.(check int) "32 bytes" 32 (String.length s);
  match Modp.of_bytes s with
  | Some e -> Alcotest.(check string) "re-encodes" (Hex.encode s) (Hex.encode (Modp.to_bytes e))
  | None -> Alcotest.fail "roundtrip failed"

let qcheck_schnorr_roundtrip =
  QCheck.Test.make ~name:"schnorr sign/verify roundtrip" ~count:20 QCheck.(pair string string)
    (fun (seed, msg) ->
      let priv, pub = Schnorr.derive ~seed in
      Schnorr.verify pub ~msg ~signature:(Schnorr.sign priv msg))

let () =
  Alcotest.run "scion_crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "nist vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "kdf" `Quick test_kdf_properties;
        ] );
      ( "aes128",
        [
          Alcotest.test_case "fips197" `Quick test_aes128_fips197;
          Alcotest.test_case "sp800-38a" `Quick test_aes128_sp800_38a;
          Alcotest.test_case "bad sizes" `Quick test_aes128_bad_sizes;
        ] );
      ( "cmac",
        [
          Alcotest.test_case "rfc4493 vectors" `Quick test_cmac_rfc4493;
          Alcotest.test_case "truncated verify" `Quick test_cmac_truncated_verify;
        ] );
      ( "bignum",
        [
          Alcotest.test_case "basic" `Quick test_bignum_basic;
          Alcotest.test_case "sub negative" `Quick test_bignum_sub_negative;
          Alcotest.test_case "divmod" `Quick test_bignum_divmod;
          Alcotest.test_case "hex" `Quick test_bignum_hex;
          Alcotest.test_case "modpow fermat" `Quick test_bignum_modpow_fermat;
          QCheck_alcotest.to_alcotest qcheck_bignum_add_matches_int;
          QCheck_alcotest.to_alcotest qcheck_bignum_mul_matches_int;
          QCheck_alcotest.to_alcotest qcheck_bignum_divmod_identity;
          QCheck_alcotest.to_alcotest qcheck_bignum_bytes_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_bignum_shift_inverse;
          QCheck_alcotest.to_alcotest qcheck_barrett_matches_modulo;
        ] );
      ( "modp",
        [
          Alcotest.test_case "prime (miller-rabin)" `Slow test_modp_prime_miller_rabin;
          Alcotest.test_case "pow small" `Quick test_modp_pow_small;
          Alcotest.test_case "bytes" `Quick test_modp_bytes;
          QCheck_alcotest.to_alcotest qcheck_modp_mul_matches_generic;
        ] );
      ( "schnorr",
        [
          Alcotest.test_case "sign/verify" `Quick test_schnorr_sign_verify;
          Alcotest.test_case "deterministic" `Quick test_schnorr_deterministic;
          Alcotest.test_case "tamper rejected" `Quick test_schnorr_tamper_rejected;
          Alcotest.test_case "garbage rejected" `Quick test_schnorr_garbage_rejected;
          Alcotest.test_case "pub roundtrip" `Quick test_schnorr_pub_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_schnorr_roundtrip;
        ] );
    ]
