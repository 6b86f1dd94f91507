(* The nonce key is HMAC's prepared form of the scalar's 32-byte encoding:
   the two pad blocks are compressed once, when the key is derived, so a
   signature's nonce costs only the message's blocks and one outer block. *)
type private_key = { x : Bignum.t; nonce_key : Hmac.key; pub_bytes : string }

(* The encoding is cached because every signature check hashes it; the comb
   over the key's field element is built on the first verification against
   the key. *)
type public_key = { y_bytes : string; table : Modp.comb Lazy.t }

let public_of_felem y = { y_bytes = Modp.to_bytes y; table = lazy (Modp.comb y) }

let g = Modp.of_int 3
let exponent_modulus = Bignum.sub Modp.p Bignum.one
let signature_size = 64

(* Fixed-base exponentiation through one shared wide comb ({!Modp.wide_comb}):
   7 squarings and at most 32 multiplies per power. Every signature, every
   key derivation and every verification's left side is a power of g. *)
let g_comb = lazy (Modp.wide_comb g)
let pow_g e = Modp.wide_comb_pow (Lazy.force g_comb) e

(* Map 32 uniform bytes into [1, p-2]: reduce mod (p-3) then add 1. The bias
   is negligible (p is within 2^-190 of 2^256). *)
let scalar_of_bytes b =
  let v = Bignum.modulo (Bignum.of_bytes_be b) (Bignum.sub Modp.p (Bignum.of_int 3)) in
  Bignum.add v Bignum.one

let derive ~seed =
  let x = scalar_of_bytes (Hmac.kdf ~secret:seed ~info:"schnorr-key" 32) in
  let pub = public_of_felem (pow_g x) in
  ({ x; nonce_key = Hmac.prepare (Bignum.to_bytes_be ~width:32 x); pub_bytes = pub.y_bytes }, pub)

let challenge_digest ~r_bytes ~pub_bytes ~msg =
  let st = Sha256.init () in
  Sha256.feed st r_bytes;
  Sha256.feed st pub_bytes;
  Sha256.feed st msg;
  Sha256.finish st

let challenge ~r_bytes ~pub_bytes ~msg =
  Modp.reduce_exponent (Bignum.of_bytes_be (challenge_digest ~r_bytes ~pub_bytes ~msg))

let sign priv msg =
  let pub_bytes = priv.pub_bytes in
  let k =
    let st = Hmac.start priv.nonce_key in
    Sha256.feed st "nonce";
    Sha256.feed st msg;
    let raw = Hmac.finish priv.nonce_key st in
    let k = Modp.reduce_exponent (Bignum.of_bytes_be raw) in
    if Bignum.is_zero k then Bignum.one else k
  in
  let r = pow_g k in
  let r_bytes = Modp.to_bytes r in
  let e = challenge ~r_bytes ~pub_bytes ~msg in
  let s = Modp.reduce_exponent (Bignum.add k (Bignum.mul e priv.x)) in
  r_bytes ^ Bignum.to_bytes_be ~width:32 s

(* Parse and range-check a signature into (r, its bytes, s); shared by the
   single and batch verifiers so both reject exactly the same malformed
   inputs. *)
let parse_signature signature =
  if String.length signature <> signature_size then None
  else begin
    let r_bytes = String.sub signature 0 32 in
    match Modp.of_bytes r_bytes with
    | None -> None
    | Some r ->
        if Modp.equal r Modp.zero then None
        else begin
          let s = Bignum.of_bytes_be (String.sub signature 32 32) in
          if Bignum.compare s exponent_modulus >= 0 then None else Some (r, r_bytes, s)
        end
  end

let verify pub ~msg ~signature =
  match parse_signature signature with
  | None -> false
  | Some (r, r_bytes, s) ->
      let e = challenge ~r_bytes ~pub_bytes:pub.y_bytes ~msg in
      Modp.equal (pow_g s) (Modp.mul r (Modp.comb_pow (Lazy.force pub.table) e))

let same_key a b = a == b || String.equal a.y_bytes b.y_bytes

(* Coefficient [i] of a batch: 62 bits read from 8 bytes of the digest of
   the transcript digest [td] and [i / 4], so one digest serves 4 items. *)
let coefficients td n =
  let zs = Array.make n 0 in
  let prefix = Sha256.init () in
  Sha256.feed prefix td;
  for blk = 0 to (n - 1) / 4 do
    let h =
      let st = Sha256.copy prefix in
      Sha256.feed st (string_of_int blk);
      Sha256.finish st
    in
    for q = 0 to min 3 (n - 1 - (4 * blk)) do
      let z = ref 0 in
      for j = 0 to 7 do
        z := (!z lsl 8) lor Char.code h.[(8 * q) + j]
      done;
      let z = !z land max_int in
      zs.((4 * blk) + q) <- (if z = 0 then 1 else z)
    done
  done;
  zs

(* Batch verification by random linear combination: each equation
   g^(s_i) = r_i * pub_i^(e_i) is raised to a per-item 62-bit coefficient
   z_i and the products compared:

     g^(sum z_i * s_i)  =?=  prod r_i^(z_i) * prod_keys pub^(sum_{i: pub_i = pub} z_i * e_i)

   Items under one key share one comb entry: their z_i * e_i are summed
   first. The left side is one fixed-base power of g. The right side is a
   single 64-column comb schedule: one entry per distinct key through its
   table, and each r_i^(z_i) multiplied in bit by bit inside the same
   columns, so the whole batch shares 64 squarings. Exponent sums are
   reduced modulo p - 1 once each; g, every key and every r_i lie in
   Z_p^*, so their (p-1)-th powers are 1 and an unreduced challenge digest
   serves as e_i.

   Coefficients are derived deterministically: the transcript is every
   item's challenge digest (which binds r_i, the key and the message) and
   signature, hashed once, and each further digest of that hash yields 4
   coefficients (this code base is a deployment reproduction, not an
   adversarial setting; see the .mli note). A valid batch always passes;
   an invalid one passes only if the coefficients hit a ~2^-62
   relation. *)
let verify_batch items =
  match items with
  | [] -> true
  | [ (pub, msg, signature) ] -> verify pub ~msg ~signature
  | _ -> (
      let rec parse acc = function
        | [] -> Some (Array.of_list (List.rev acc))
        | (pub, msg, signature) :: rest -> (
            match parse_signature signature with
            | None -> None
            | Some (r, r_bytes, s) ->
                let d = challenge_digest ~r_bytes ~pub_bytes:pub.y_bytes ~msg in
                parse ((pub, r, s, d, signature) :: acc) rest)
      in
      match parse [] items with
      | None -> false
      | Some parsed ->
          let td =
            let st = Sha256.init () in
            Array.iter
              (fun (_, _, _, d, sg) ->
                Sha256.feed st d;
                Sha256.feed st sg)
              parsed;
            Sha256.finish st
          in
          let zs = coefficients td (Array.length parsed) in
          let lhs = ref Bignum.zero and keys = ref [] in
          Array.iteri
            (fun i (pub, _, s, d, _) ->
              let z = Bignum.of_int zs.(i) in
              lhs := Bignum.add !lhs (Bignum.mul z s);
              let ze = Bignum.mul z (Bignum.of_bytes_be d) in
              match List.find_opt (fun (k, _) -> same_key k pub) !keys with
              | Some (_, sum) -> sum := Bignum.add !sum ze
              | None -> keys := (pub, ref ze) :: !keys)
            parsed;
          let rhs =
            Modp.comb_pow_multi
              (Array.of_list
                 (List.rev_map
                    (fun (pub, sum) -> (Lazy.force pub.table, Modp.reduce_exponent !sum))
                    !keys))
              (Array.mapi (fun i (_, r, _, _, _) -> (r, zs.(i))) parsed)
          in
          Modp.equal (pow_g (Modp.reduce_exponent !lhs)) rhs)

let public_to_string pub = pub.y_bytes
