(** Shared per-destination path-quality cache.

    One {!Estimator} per (destination, path fingerprint), created on first
    touch and shared between every consumer: the {!Prober} feeding it, any
    [Pan.Conn] whose {!Selector} reads it, and operator tooling
    ([bin/showpaths]) rendering it. The daemon owns one cache per host so
    connections to the same destination pool their quality knowledge
    instead of each warming a private view — the "shared per-destination
    quality cache" of the paper's adaptive-selection story.

    Keys are plain strings (the destination is whatever label the creator
    scopes by, conventionally the IA string; the path key is the
    [Combinator.fullpath] fingerprint), and all listing functions return
    ascending order, so anything rendered from a cache walk is
    byte-stable. *)

type t

val create : unit -> t
(** An empty cache; {!find} creates estimators with the default
    configuration. *)

val find : t -> dst:string -> fingerprint:string -> Estimator.t
(** Get-or-create the estimator for one (destination, path) pair. *)

val peek : t -> dst:string -> fingerprint:string -> Estimator.t option
(** Like {!find} but never creates. *)
