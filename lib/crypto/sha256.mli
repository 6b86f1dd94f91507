(** Pure-OCaml SHA-256 (FIPS 180-4). No third-party crypto library is
    available in this environment, so the hash is implemented here and
    validated against the NIST test vectors in the test suite. *)

type t
(** An incremental state: the chaining value after the whole blocks fed so
    far, the buffered tail (fewer than 64 bytes), the byte count and its own
    schedule buffer. Feeding a message in any number of pieces gives the
    same digest as feeding it at once. A state is mutable and not shared:
    {!copy} it to fork a common prefix. *)

val init : unit -> t
(** The state before any input. *)

val feed : t -> string -> unit
(** [feed st s] appends [s]. Whole blocks are compressed straight from [s];
    only what does not fill a block is buffered. *)

val copy : t -> t
(** An independent state with the same input so far. *)

val finish : t -> string
(** The 32-byte digest of everything fed. It pads in place, so [st] must
    not be fed or finished again. *)

val chain : t -> string
(** [chain st] is [st]'s 32-byte chaining value, for a state whose input so
    far is a whole number of blocks: a midstate that {!resume} restarts
    from, so a fixed first block (an HMAC pad, say) is compressed once.
    Raises [Invalid_argument] if a partial block is buffered. *)

val resume : string -> pos:int -> length:int -> t
(** [resume s ~pos ~length] is the state whose chaining value is the 32
    bytes of [s] from [pos] (as {!chain} returned it) after [length] bytes
    of input, a multiple of 64; nothing is buffered. Raises
    [Invalid_argument] if [length] is not a whole number of blocks. *)

val digest : string -> string
(** [digest msg] returns the 32-byte binary digest of [msg]: {!init},
    {!feed} and {!finish} in one call. *)
