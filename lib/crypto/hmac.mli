(** HMAC-SHA256 (RFC 2104), validated against the RFC 4231 vectors. Used for
    symmetric message authentication and as the PRF in key derivation and
    deterministic Schnorr nonces. *)

type key
(** A prepared key: the SHA-256 chaining values ({!Sha256.chain}) after the
    inner pad block [K xor 0x36...] and after the outer pad block
    [K xor 0x5c...], 32 bytes each, where [K] is the key zero-padded to 64
    bytes (or its digest, for a key longer than 64 bytes). Nothing else is
    kept: each MAC starts two fresh states from these values, so the pad
    blocks are compressed once per key instead of twice per MAC. *)

val prepare : string -> key
(** [prepare k] compresses [k]'s two pad blocks. *)

val start : key -> Sha256.t
(** A fresh state that has absorbed the inner pad block. Feed it the
    message, in as many pieces as convenient, then {!finish} it. *)

val finish : key -> Sha256.t -> string
(** [finish key inner] returns the 32-byte tag
    [H((K xor opad) || H((K xor ipad) || msg))], where [inner] is a state
    from {!start} fed [msg]. [inner] is finished and must not be reused. *)

val kdf : secret:string -> info:string -> int -> string
(** [kdf ~secret ~info n] expands [secret] into [n] bytes of keying material
    using HKDF-style counter expansion with [info] as the context label. *)
