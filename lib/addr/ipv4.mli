(** IPv4 addresses and UDP endpoints for the intra-AS "Layer 2.5" underlay.
    SCION packets travel between end hosts and border routers inside an AS
    encapsulated in IP-UDP; the simulator models those local networks with
    real dotted-quad addressing so bootstrapping hints and topology files
    look like their production counterparts. *)

type t
(** An IPv4 address. *)

val of_string : string -> t
(** Parses dotted-quad notation. Raises [Invalid_argument] on malformed
    input. *)

val of_int32 : int32 -> t
val to_int32 : t -> int32
val to_string : t -> string

type endpoint = { host : t; port : int }
(** A UDP endpoint. *)

val endpoint_of_string : string -> endpoint
(** Parses ["10.0.0.1:30041"]. Raises [Invalid_argument] on malformed
    input. *)

val endpoint_to_string : endpoint -> string
