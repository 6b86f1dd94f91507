type private_key = { x : Bignum.t; x_bytes : string; pub_bytes : string Lazy.t }
type public_key = Modp.felem

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

let private_of_scalar x =
  let rec priv = { x; x_bytes = Bignum.to_bytes_be ~width:32 x; pub_bytes }
  and pub_bytes = lazy (Modp.to_bytes (pow_g x)) in
  priv

let public_of_private priv = pow_g priv.x

let derive ~seed =
  let priv = private_of_scalar (scalar_of_bytes (Hmac.kdf ~secret:seed ~info:"schnorr-key" 32)) in
  (priv, public_of_private priv)

let challenge ~r_bytes ~pub_bytes ~msg =
  Modp.reduce_exponent (Bignum.of_bytes_be (Sha256.digest (r_bytes ^ pub_bytes ^ msg)))

let sign priv msg =
  let pub_bytes = Lazy.force priv.pub_bytes in
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

(* Parse and range-check a signature into (r, s); shared by the single and
   batch verifiers so both reject exactly the same malformed inputs. *)
let parse_signature signature =
  if String.length signature <> signature_size then None
  else begin
    match Modp.of_bytes (String.sub signature 0 32) with
    | None -> None
    | Some r ->
        if Modp.equal r Modp.zero then None
        else begin
          let s = Bignum.of_bytes_be (String.sub signature 32 32) in
          if Bignum.compare s exponent_modulus >= 0 then None else Some (r, s)
        end
  end

let verify pub ~msg ~signature =
  match parse_signature signature with
  | None -> false
  | Some (r, s) ->
      let e = challenge ~r_bytes:(Modp.to_bytes r) ~pub_bytes:(Modp.to_bytes pub) ~msg in
      Modp.equal (pow_g s) (Modp.mul r (Modp.pow pub e))

(* Batch verification by random linear combination: each equation
   g^(s_i) = r_i * pub_i^(e_i) is raised to a per-item 64-bit coefficient
   z_i and the products compared:

     g^(sum z_i * s_i)  =?=  prod r_i^(z_i) * pub_i^(z_i * e_i)

   The left side is one comb-table fixed-base power; the right side is a
   single Straus interleaved multi-exponentiation, so the ~256 squarings of
   a 256-bit ladder are paid once for the whole batch instead of once per
   signature. Coefficients are derived deterministically from a hash of the
   whole batch transcript (this code base is a deployment reproduction, not
   an adversarial setting; see the .mli note). A valid batch always passes;
   an invalid one passes only if the coefficients hit a ~2^-64 relation. *)
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
            | Some (r, s) ->
                let e =
                  challenge ~r_bytes:(Modp.to_bytes r) ~pub_bytes:(Modp.to_bytes pub) ~msg
                in
                Some (pub, r, s, e))
          items
      in
      if List.exists (fun x -> x = None) parsed then false
      else begin
        let parsed = List.filter_map Fun.id parsed in
        let transcript =
          String.concat ""
            (List.map
               (fun (pub, msg, signature) ->
                 Modp.to_bytes pub ^ Sha256.digest msg ^ signature)
               items)
        in
        let coeff i =
          let h = Sha256.digest (transcript ^ string_of_int i) in
          let z = ref 0 in
          for j = 0 to 7 do
            z := (!z lsl 8) lor Char.code h.[j]
          done;
          let z = !z land max_int in
          if z = 0 then 1 else z
        in
        let n = List.length parsed in
        let zs = Array.init n coeff in
        let parsed = Array.of_list parsed in
        (* left: g^(sum z_i s_i mod (p-1)) *)
        let lhs_exp =
          ref Bignum.zero
        in
        for i = 0 to n - 1 do
          let (_, _, s, _) = parsed.(i) in
          lhs_exp :=
            Modp.reduce_exponent (Bignum.add !lhs_exp (Bignum.mul (Bignum.of_int zs.(i)) s))
        done;
        let lhs = pow_g !lhs_exp in
        (* right: Straus over 2n bases — r_i with 64-bit exponent z_i, pub_i
           with 256-bit exponent z_i * e_i mod (p - 1). 4-bit windows; the
           squarings are shared across every base. *)
        let bases = Array.make (2 * n) Modp.one in
        let exps = Array.make (2 * n) [||] in
        let max_nibbles = ref 1 in
        for i = 0 to n - 1 do
          let pub, r, _, e = parsed.(i) in
          bases.(2 * i) <- r;
          exps.(2 * i) <- Bignum.limbs (Bignum.of_int zs.(i));
          bases.((2 * i) + 1) <- pub;
          exps.((2 * i) + 1) <-
            Bignum.limbs (Modp.reduce_exponent (Bignum.mul (Bignum.of_int zs.(i)) e));
          Array.iter
            (fun l -> max_nibbles := max !max_nibbles (Array.length l * 4))
            [| exps.(2 * i); exps.((2 * i) + 1) |]
        done;
        let tables =
          Array.map
            (fun b ->
              let t = Array.make 15 b in
              for d = 1 to 14 do
                t.(d) <- Modp.mul t.(d - 1) b
              done;
              t)
            bases
        in
        let nibble l j =
          let limb = j / 4 in
          if limb >= Array.length l then 0 else (l.(limb) lsr ((j mod 4) * 4)) land 0xF
        in
        let acc = ref Modp.one in
        for j = !max_nibbles - 1 downto 0 do
          if not (Modp.equal !acc Modp.one) then begin
            acc := Modp.sqr !acc;
            acc := Modp.sqr !acc;
            acc := Modp.sqr !acc;
            acc := Modp.sqr !acc
          end;
          for b = 0 to (2 * n) - 1 do
            let d = nibble exps.(b) j in
            if d <> 0 then acc := Modp.mul !acc tables.(b).(d - 1)
          done
        done;
        Modp.equal lhs !acc
      end

let public_to_string = Modp.to_bytes
