(** Happy Eyeballs with SCION as a third address family (Section 4.2.2).

    RFC 8305 races IPv6 against IPv4 with a head start for the preferred
    family; the paper proposes adding SCION as a further candidate so every
    application using the OS connect-by-name library becomes SCION-capable.
    This module implements the staggered race and reports which family wins
    under given per-family availability and connection latency. *)

type family = Scion | Ipv6 | Ipv4

type candidate = {
  family : family;
  available : bool;  (** Destination reachable over this family. *)
  connect_ms : float;  (** Connection setup latency when available. *)
}

type outcome = {
  winner : family option;
  established_ms : float;  (** Wall-clock until the winning connect. *)
  attempts : family list;  (** Families actually tried, in start order. *)
}

val race :
  ?preference:family list ->
  ?stagger_ms:float ->
  candidate list ->
  outcome
(** [race candidates] starts the most-preferred family first and each next
    family after [stagger_ms] (default 250 ms, RFC 8305's connection
    attempt delay); the first completed connect wins. [winner = None] when
    every family fails. *)
