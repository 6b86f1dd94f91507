(** Checked-in golden evidence under [test/golden/<figure>/].

    Each figure owns two files: [table.txt] (canonical result table) and
    [metrics.jsonl] (telemetry snapshot). {!check_figure} byte-compares them
    against freshly regenerated {!Evidence}; {!promote} rewrites them —
    the only sanctioned way to update goldens
    ([dune exec bench/main.exe -- golden --promote]). *)

type file = {
  figure : string;
  path : string;  (** The golden file, or [<figure>: <claim>] for a broken claim. *)
  diff : string option;  (** [None] when the golden matches byte-for-byte. *)
}

val check_figure : Evidence.session -> dir:string -> string -> file list
(** Regenerate one figure's evidence in the session and diff it against
    its two golden files, then add one always-stale entry per shape claim
    the evidence breaks ([Evidence.t.failed_claims]). A missing golden
    reports a diff pointing at the promote command. Dataset memoisation in
    the session makes checking several figures of one dataset cost a
    single experiment run. *)

val stale : file list -> file list
(** The files whose diff is non-empty. *)

type status = Created | Updated | Unchanged

val status_to_string : status -> string

val promote : Evidence.session -> dir:string -> (string * status) list
(** Regenerate everything and (re)write the golden files, creating
    directories as needed; files already matching are left untouched. *)
