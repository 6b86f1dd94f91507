(** Hop predicates and sequences — the path-policy language exposed to
    applications (the [--sequence] flag the paper's SCIONabled [bat] tool
    gained, Appendix E).

    A hop predicate has the form ["ISD-AS#IF1,IF2"], where each component
    may be 0 (wildcard): ["0-0#0"] matches any hop, ["71-0"] matches any AS
    in ISD 71, ["71-2:0:3b#1,2"] matches that AS traversed from interface 1
    to interface 2, and ["71-559#5"] matches if either interface is 5.

    A sequence is a whitespace-separated list of hop predicates, each
    matching exactly one hop, with ["*"] matching any number of arbitrary
    hops (e.g. ["71-559 * 71-88"]). *)

type hop = { ia : Ia.t; ingress : int; egress : int }
(** One traversed AS with its entry/exit interface ids (0 when the AS is an
    endpoint of the path). *)

type sequence

val parse_sequence : string -> (sequence, string) result
(** Parses a full sequence; the empty string yields a sequence matching
    every path. *)

val sequence_to_string : sequence -> string
val sequence_matches : sequence -> hop list -> bool

val deny_transit : through:Ia.Set.t -> endpoints_ok:bool -> hop list -> bool
(** [deny_transit ~through ~endpoints_ok hops] returns [true] when the path
    is acceptable under a policy that forbids *transiting* the given ASes:
    a hop in [through] is allowed only as first or last hop (and only when
    [endpoints_ok]). This implements the paper's Section 4.9 rule that
    commercial ASes may originate/terminate but never transit SCIERA. *)
