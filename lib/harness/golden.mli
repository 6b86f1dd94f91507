(** Checked-in golden evidence under [test/golden/<figure>/].

    Each figure owns two files: [table.txt] (canonical result table) and
    [metrics.jsonl] (telemetry snapshot). {!check} byte-compares them
    against freshly regenerated {!Evidence}; {!promote} rewrites them —
    the only sanctioned way to update goldens
    ([dune exec bench/main.exe -- golden --promote]). *)

type file = {
  figure : string;
  path : string;
  diff : string option;  (** [None] when the golden matches byte-for-byte. *)
}

val check_figure : dir:string -> string -> file list
(** Regenerate one figure's evidence and diff it against its two golden
    files. A missing golden reports a diff pointing at the promote
    command. Dataset memoisation in {!Evidence} makes checking several
    figures of one dataset cost a single experiment run. *)

val check : dir:string -> unit -> file list
(** {!check_figure} over every figure, in EXPERIMENTS.md order. *)

val stale : file list -> file list
(** The files whose diff is non-empty. *)

type status = Created | Updated | Unchanged

val status_to_string : status -> string

val promote : dir:string -> unit -> (string * status) list
(** Regenerate everything and (re)write the golden files, creating
    directories as needed; files already matching are left untouched. *)
