open Scion_cppki
module Schnorr = Scion_crypto.Schnorr
module Ia = Scion_addr.Ia

let now = 1_700_000_000.0
let day = 86400.0
let year = 365.0 *. day
let ia = Ia.of_string

(* The uncached chain check: every certificate signature is verified. *)
let chain = Verify.chain ~verify:Schnorr.verify

let roots n = List.init n (fun i ->
    let name = Printf.sprintf "root-%d" i in
    let priv, pub = Schnorr.derive ~seed:("trc-" ^ name) in
    (name, priv, pub))

let base_trc ?(quorum = 2) ?(n_roots = 3) () =
  Trc.sign_base ~isd:71
    ~validity:(now, now +. year)
    ~core_ases:[ ia "71-2:0:1"; ia "71-2:0:2" ]
    ~ca_ases:[ ia "71-2:0:1" ] ~quorum ~roots:(roots n_roots)

let test_base_trc_verifies () =
  let trc = base_trc () in
  Alcotest.(check bool) "base verifies" true (Trc.verify_base trc);
  Alcotest.(check bool) "within validity" true (Trc.in_validity trc (now +. day));
  Alcotest.(check bool) "before validity" false (Trc.in_validity trc (now -. 1.0));
  Alcotest.(check bool) "root lookup" true (Trc.find_root trc "root-0" <> None);
  Alcotest.(check bool) "unknown root" true (Trc.find_root trc "nope" = None)

let test_base_trc_tamper_detected () =
  let trc = base_trc () in
  let tampered = { trc with Trc.quorum = 1 } in
  Alcotest.(check bool) "tampered base rejected" false (Trc.verify_base tampered)

let test_trc_update_quorum () =
  let trc = base_trc () in
  let all = roots 3 in
  let votes2 = List.filteri (fun i _ -> i < 2) (List.map (fun (n, p, _) -> (n, p)) all) in
  (match Trc.update ~prev:trc ~validity:(now, now +. (2.0 *. year)) ~votes:votes2 () with
  | Ok next -> (
      Alcotest.(check int) "serial bumped" 2 next.Trc.serial;
      match Trc.verify_update ~prev:trc next with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e);
  let votes1 = [ List.hd (List.map (fun (n, p, _) -> (n, p)) all) ] in
  match Trc.update ~prev:trc ~validity:(now, now +. year) ~votes:votes1 () with
  | Ok _ -> Alcotest.fail "accepted sub-quorum update"
  | Error _ -> ()

let test_trc_update_unknown_voter () =
  let trc = base_trc () in
  let stranger, _ = Schnorr.derive ~seed:"stranger" in
  let root0_priv = match roots 3 with (_, p, _) :: _ -> p | [] -> assert false in
  match
    Trc.update ~prev:trc ~validity:(now, now +. year)
      ~votes:[ ("mallory", stranger); ("root-0", root0_priv) ]
      ()
  with
  | Ok _ -> Alcotest.fail "accepted unknown voter"
  | Error _ -> ()

let test_trc_chain () =
  let trc = base_trc () in
  let votes = List.map (fun (n, p, _) -> (n, p)) (roots 3) in
  let next1 =
    match Trc.update ~prev:trc ~validity:(now, now +. year) ~votes () with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let next2 =
    match Trc.update ~prev:next1 ~validity:(now, now +. year) ~votes () with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  (match Trc.verify_chain ~base:trc [ next1; next2 ] with
  | Ok latest -> Alcotest.(check int) "latest serial" 3 latest.Trc.serial
  | Error e -> Alcotest.fail e);
  (* Skipping a link breaks the chain. *)
  match Trc.verify_chain ~base:trc [ next2 ] with
  | Ok _ -> Alcotest.fail "accepted gap in chain"
  | Error _ -> ()

let test_trc_root_rotation () =
  let trc = base_trc () in
  let votes = List.map (fun (n, p, _) -> (n, p)) (roots 3) in
  let new_roots =
    List.map
      (fun i ->
        let name = Printf.sprintf "newroot-%d" i in
        let _, pub = Schnorr.derive ~seed:name in
        { Trc.name; key = pub })
      [ 0; 1; 2 ]
  in
  match Trc.update ~prev:trc ~rotate_roots:new_roots ~validity:(now, now +. year) ~votes () with
  | Ok next -> (
      match Trc.verify_update ~prev:trc next with
      | Ok () -> Alcotest.(check bool) "rotated" true (Trc.find_root next "newroot-0" <> None)
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e

(* --- Certificates and CA --- *)

let setup_ca ?(profile = Cert.Open_source) () =
  let root_priv, root_pub = Schnorr.derive ~seed:"ca-root" in
  ignore root_pub;
  let ca_ia = ia "71-2:0:1" in
  let ca_priv, ca_pub = Schnorr.derive ~seed:"ca-key" in
  let ca_cert =
    Cert.sign ~kind:Cert.Ca ~profile ~serial:1 ~subject:ca_ia ~pubkey:ca_pub
      ~validity:(now, now +. (5.0 *. year))
      ~issuer:ca_ia ~issuer_key_name:"root-0" ~issuer_priv:root_priv
  in
  let trc =
    Trc.sign_base ~isd:71
      ~validity:(now, now +. (10.0 *. year))
      ~core_ases:[ ca_ia ] ~ca_ases:[ ca_ia ] ~quorum:1
      ~roots:[ ("root-0", root_priv, root_pub) ]
  in
  (Ca.create ~ia:ca_ia ~priv:ca_priv ~cert:ca_cert (), trc)

let subject_keys = Schnorr.derive ~seed:"subject-71-559"

let test_issue_and_chain () =
  let ca, trc = setup_ca () in
  let _, pub = subject_keys in
  let cert = Ca.issue ca ~subject:(ia "71-559") ~pubkey:pub ~profile:Cert.Open_source ~now in
  Alcotest.(check bool) "short-lived" true (cert.Cert.not_after -. cert.Cert.not_before <= 3.0 *. day +. 1.0);
  (match chain ~trc ~ca_cert:(Ca.ca_cert ca) ~as_cert:cert ~now:(now +. day) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Verify.error_to_string e));
  (* Expired AS cert fails. *)
  (match chain ~trc ~ca_cert:(Ca.ca_cert ca) ~as_cert:cert ~now:(now +. (10.0 *. day)) with
  | Ok () -> Alcotest.fail "accepted expired cert"
  | Error (Verify.As_cert_invalid _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Verify.error_to_string e));
  (* Forged cert (wrong issuer key) fails. *)
  let mallory, _ = Schnorr.derive ~seed:"mallory" in
  let forged =
    Cert.sign ~kind:Cert.As_signing ~profile:Cert.Open_source ~serial:99 ~subject:(ia "71-559")
      ~pubkey:pub ~validity:(now, now +. day) ~issuer:(Ca.ia ca) ~issuer_key_name:"ca"
      ~issuer_priv:mallory
  in
  match chain ~trc ~ca_cert:(Ca.ca_cert ca) ~as_cert:forged ~now with
  | Ok () -> Alcotest.fail "accepted forged cert"
  | Error (Verify.As_cert_invalid _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Verify.error_to_string e)

let test_profiles_interop () =
  let ca, trc = setup_ca ~profile:Cert.Proprietary () in
  let _, pub = subject_keys in
  (* Proprietary CA issuing an open-source-profile AS cert and vice versa
     must both verify (the Section 4.5 interop lesson). *)
  List.iter
    (fun profile ->
      let cert = Ca.issue ca ~subject:(ia "71-559") ~pubkey:pub ~profile ~now in
      match chain ~trc ~ca_cert:(Ca.ca_cert ca) ~as_cert:cert ~now with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Verify.error_to_string e))
    [ Cert.Open_source; Cert.Proprietary ];
  (* The two profiles produce different canonical bytes. *)
  let c1 = Ca.issue ca ~subject:(ia "71-559") ~pubkey:pub ~profile:Cert.Open_source ~now in
  let c2 = { c1 with Cert.profile = Cert.Proprietary } in
  Alcotest.(check bool) "encodings differ" true (Cert.signed_bytes c1 <> Cert.signed_bytes c2)

let test_renewal_flow () =
  let ca, trc = setup_ca () in
  let _, pub = subject_keys in
  let cert = Ca.issue ca ~subject:(ia "71-559") ~pubkey:pub ~profile:Cert.Open_source ~now in
  Alcotest.(check bool) "fresh cert needs no renewal" false (Ca.needs_renewal cert ~now);
  let later = now +. (2.5 *. day) in
  Alcotest.(check bool) "old cert needs renewal" true (Ca.needs_renewal cert ~now:later);
  (match Ca.renew ca ~current:cert ~pubkey:pub ~now:later with
  | Ok fresh -> (
      Alcotest.(check bool) "new serial" true (fresh.Cert.serial > cert.Cert.serial);
      match chain ~trc ~ca_cert:(Ca.ca_cert ca) ~as_cert:fresh ~now:(later +. day) with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Verify.error_to_string e))
  | Error e -> Alcotest.fail e);
  (* Renewal after expiry requires re-enrollment. *)
  (match Ca.renew ca ~current:cert ~pubkey:pub ~now:(now +. (30.0 *. day)) with
  | Ok _ -> Alcotest.fail "renewed expired cert"
  | Error _ -> ());
  (* Revoked certificates cannot renew. *)
  Ca.revoke ca ~serial:cert.Cert.serial;
  Alcotest.(check bool) "revoked" true (Ca.is_revoked ca ~serial:cert.Cert.serial);
  match Ca.renew ca ~current:cert ~pubkey:pub ~now:later with
  | Ok _ -> Alcotest.fail "renewed revoked cert"
  | Error _ -> ()

let test_ca_rejects_non_ca_cert () =
  let ca, _ = setup_ca () in
  let _, pub = subject_keys in
  let as_cert = Ca.issue ca ~subject:(ia "71-559") ~pubkey:pub ~profile:Cert.Open_source ~now in
  let priv, _ = Schnorr.derive ~seed:"x" in
  try
    ignore (Ca.create ~ia:(ia "71-559") ~priv ~cert:as_cert ());
    Alcotest.fail "accepted AS cert as CA cert"
  with Invalid_argument _ -> ()

let test_unauthorized_ca_rejected () =
  let ca, trc = setup_ca () in
  let _, pub = subject_keys in
  let cert = Ca.issue ca ~subject:(ia "71-559") ~pubkey:pub ~profile:Cert.Open_source ~now in
  (* A TRC that does not list the CA AS. *)
  let root_priv, root_pub = Schnorr.derive ~seed:"ca-root" in
  let other_trc =
    Trc.sign_base ~isd:71
      ~validity:(now, now +. (10.0 *. year))
      ~core_ases:[ ia "71-2:0:1" ] ~ca_ases:[ ia "71-2:0:99" ] ~quorum:1
      ~roots:[ ("root-0", root_priv, root_pub) ]
  in
  match chain ~trc:other_trc ~ca_cert:(Ca.ca_cert ca) ~as_cert:cert ~now with
  | Ok () -> Alcotest.fail "accepted unauthorized CA"
  | Error (Verify.Ca_cert_invalid _) -> ignore trc
  | Error e -> Alcotest.fail ("wrong error: " ^ Verify.error_to_string e)

let test_cert_remaining_fraction () =
  let _, pub = subject_keys in
  let priv, _ = Schnorr.derive ~seed:"issuer" in
  let cert =
    Cert.sign ~kind:Cert.As_signing ~profile:Cert.Open_source ~serial:1 ~subject:(ia "71-1")
      ~pubkey:pub ~validity:(0.0, 100.0) ~issuer:(ia "71-2") ~issuer_key_name:"ca" ~issuer_priv:priv
  in
  Alcotest.(check (float 1e-9)) "start" 1.0 (Cert.remaining_fraction cert 0.0);
  Alcotest.(check (float 1e-9)) "middle" 0.5 (Cert.remaining_fraction cert 50.0);
  Alcotest.(check (float 1e-9)) "end" 0.0 (Cert.remaining_fraction cert 100.0);
  Alcotest.(check (float 1e-9)) "past" 0.0 (Cert.remaining_fraction cert 200.0)

let () =
  Alcotest.run "scion_cppki"
    [
      ( "trc",
        [
          Alcotest.test_case "base verifies" `Quick test_base_trc_verifies;
          Alcotest.test_case "tamper detected" `Quick test_base_trc_tamper_detected;
          Alcotest.test_case "update quorum" `Quick test_trc_update_quorum;
          Alcotest.test_case "unknown voter" `Quick test_trc_update_unknown_voter;
          Alcotest.test_case "chain" `Quick test_trc_chain;
          Alcotest.test_case "root rotation" `Quick test_trc_root_rotation;
        ] );
      ( "cert/ca",
        [
          Alcotest.test_case "issue and chain" `Quick test_issue_and_chain;
          Alcotest.test_case "profiles interop" `Quick test_profiles_interop;
          Alcotest.test_case "renewal flow" `Quick test_renewal_flow;
          Alcotest.test_case "CA rejects non-CA cert" `Quick test_ca_rejects_non_ca_cert;
          Alcotest.test_case "unauthorized CA" `Quick test_unauthorized_ca_rejected;
          Alcotest.test_case "remaining fraction" `Quick test_cert_remaining_fraction;
        ] );
    ]
