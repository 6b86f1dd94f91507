(** Pure-OCaml SHA-256 (FIPS 180-4). No third-party crypto library is
    available in this environment, so the hash is implemented here and
    validated against the NIST test vectors in the test suite. *)

val digest : string -> string
(** [digest msg] returns the 32-byte binary digest of [msg]. *)

