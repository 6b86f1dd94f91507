(** HMAC-SHA256 (RFC 2104), validated against the RFC 4231 vectors. Used for
    symmetric message authentication and as the PRF in key derivation and
    deterministic Schnorr nonces. *)

val sha256 : key:string -> string -> string
(** [sha256 ~key msg] returns the 32-byte HMAC tag. *)

val kdf : secret:string -> info:string -> int -> string
(** [kdf ~secret ~info n] expands [secret] into [n] bytes of keying material
    using HKDF-style counter expansion with [info] as the context label. *)
