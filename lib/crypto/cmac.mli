(** AES-CMAC (RFC 4493). SCION hop-field MACs are computed with AES-CMAC
    over the hop's forwarding metadata; border routers verify a truncated
    6-byte tag at line rate. Validated against the RFC 4493 vectors. *)

type key

val of_string : string -> key
(** [of_string k] prepares a CMAC key from a 16-byte AES key (subkey
    derivation included). Raises [Invalid_argument] on other lengths. *)

val mac_truncated : key -> string -> int -> string
(** [mac_truncated key msg n] returns the first [n] bytes of the tag. *)

val verify : key -> msg:string -> tag:string -> bool
(** Constant-time check of a (possibly truncated) tag. Allocation-free: the
    CBC state lives in scratch buffers inside [key], which therefore must
    not be shared across concurrent verifications (the simulator is
    single-threaded). *)

(** {2 Single-complete-block fast path}

    A 16-byte message has CMAC [AES(k, msg xor k1)] — no CBC chain. SCION
    hop-field MAC inputs are exactly one block, so the border router stages
    the input directly into the key's scratch block and verifies (or emits)
    the tag in place: zero allocation, one AES call per hop. *)

val stage : key -> Bytes.t
(** The key's 16-byte staging buffer. Write the one-block message here, then
    call one of the staged operations below. Contents are clobbered by every
    CMAC operation on this key. *)

val verify_staged_bytes : key -> buf:Bytes.t -> off:int -> len:int -> bool
(** Constant-time check of the staged block's tag against [len] (1-16) tag
    bytes at [off] in [buf] (e.g. the MAC field of an encoded packet). *)

val mac_staged_into : key -> dst:Bytes.t -> off:int -> len:int -> unit
(** CMAC the staged block and write the first [len] tag bytes at [off] in
    [dst]. *)
