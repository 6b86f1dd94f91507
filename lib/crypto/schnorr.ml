type private_key = { x : Bignum.t; x_bytes : string; pub_bytes : string }

(* The encoding is cached because every signature check hashes it; the comb
   over the key's field element is built on the first verification against
   the key. *)
type public_key = { y_bytes : string; table : Modp.comb Lazy.t }

let public_of_felem y = { y_bytes = Modp.to_bytes y; table = lazy (Modp.comb y) }

let g = Modp.of_int 3
let exponent_modulus = Bignum.sub Modp.p Bignum.one
let signature_size = 64

(* Fixed-base exponentiation: g is constant, so precompute a comb table
   g^(d * 16^i) for every nibble position i in [0, 64) and digit d in
   [1, 15]. Any 256-bit g^e then costs at most 64 multiplications and zero
   squarings. Signing happens for every PCB entry during beaconing and a
   fixed-base power anchors every verification, so this matters. *)
let g_comb =
  lazy
    (let table = Array.make_matrix 64 15 Modp.one in
     let base = ref g in
     for i = 0 to 63 do
       table.(i).(0) <- !base;
       for d = 1 to 14 do
         table.(i).(d) <- Modp.mul table.(i).(d - 1) !base
       done;
       if i < 63 then base := Modp.mul table.(i).(14) !base (* g^(16^(i+1)) *)
     done;
     table)

let pow_g e =
  let table = Lazy.force g_comb in
  let limbs = Bignum.limbs e in
  let n = Array.length limbs in
  let acc = ref Modp.one in
  for j = 0 to (n * 4) - 1 do
    let d = (limbs.(j / 4) lsr ((j mod 4) * 4)) land 0xF in
    if d <> 0 && j < 64 then acc := Modp.mul !acc table.(j).(d - 1)
  done;
  !acc

(* Map 32 uniform bytes into [1, p-2]: reduce mod (p-3) then add 1. The bias
   is negligible (p is within 2^-190 of 2^256). *)
let scalar_of_bytes b =
  let v = Bignum.modulo (Bignum.of_bytes_be b) (Bignum.sub Modp.p (Bignum.of_int 3)) in
  Bignum.add v Bignum.one

let derive ~seed =
  let x = scalar_of_bytes (Hmac.kdf ~secret:seed ~info:"schnorr-key" 32) in
  let pub = public_of_felem (pow_g x) in
  ({ x; x_bytes = Bignum.to_bytes_be ~width:32 x; pub_bytes = pub.y_bytes }, pub)

let challenge ~r_bytes ~pub_bytes ~msg =
  Modp.reduce_exponent (Bignum.of_bytes_be (Sha256.digest (r_bytes ^ pub_bytes ^ msg)))

let sign priv msg =
  let pub_bytes = priv.pub_bytes in
  let k =
    let raw = Hmac.sha256 ~key:priv.x_bytes ("nonce" ^ msg) in
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

(* Batch verification by random linear combination: each equation
   g^(s_i) = r_i * pub_i^(e_i) is raised to a per-item 62-bit coefficient
   z_i and the products compared:

     g^(sum z_i * s_i)  =?=  prod r_i^(z_i) * pub_i^(z_i * e_i)

   The left side is one fixed-base power of g. The right side is a single
   64-column comb schedule: each pub_i^(z_i e_i) goes through its key's comb
   table, and each r_i^(z_i) multiplies in bit by bit inside the same
   columns, so the whole batch shares 64 squarings. Coefficients are
   derived deterministically: the whole batch transcript is hashed once,
   and z_i is read off the hash of that digest and i (this code base is a
   deployment reproduction, not an adversarial setting; see the .mli
   note). A valid batch always passes; an invalid one
   passes only if the coefficients hit a ~2^-62 relation. *)
let verify_batch items =
  match items with
  | [] -> true
  | [ (pub, msg, signature) ] -> verify pub ~msg ~signature
  | _ ->
      let parsed =
        List.map
          (fun (pub, msg, signature) ->
            match parse_signature signature with
            | None -> None
            | Some (r, r_bytes, s) ->
                Some (pub, r, s, challenge ~r_bytes ~pub_bytes:pub.y_bytes ~msg))
          items
      in
      if List.exists Option.is_none parsed then false
      else begin
        let parsed = Array.of_list (List.filter_map Fun.id parsed) in
        let transcript =
          String.concat ""
            (List.map (fun (pub, msg, signature) -> pub.y_bytes ^ Sha256.digest msg ^ signature) items)
        in
        let td = Sha256.digest transcript in
        let coeff i =
          let h = Sha256.digest (td ^ string_of_int i) in
          let z = ref 0 in
          for j = 0 to 7 do
            z := (!z lsl 8) lor Char.code h.[j]
          done;
          let z = !z land max_int in
          if z = 0 then 1 else z
        in
        let zs = Array.init (Array.length parsed) coeff in
        (* left: g^(sum z_i s_i mod (p-1)) *)
        let lhs_exp = ref Bignum.zero in
        Array.iteri
          (fun i (_, _, s, _) ->
            lhs_exp := Modp.reduce_exponent (Bignum.add !lhs_exp (Bignum.mul (Bignum.of_int zs.(i)) s)))
          parsed;
        let rhs =
          Modp.comb_pow_multi
            (Array.mapi
               (fun i (pub, _, _, e) ->
                 (Lazy.force pub.table, Modp.reduce_exponent (Bignum.mul (Bignum.of_int zs.(i)) e)))
               parsed)
            (Array.mapi (fun i (_, r, _, _) -> (r, zs.(i))) parsed)
        in
        Modp.equal (pow_g !lhs_exp) rhs
      end

let public_to_string pub = pub.y_bytes
