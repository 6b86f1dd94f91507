(** Section 5.2 — application enablement effort: the three SCIONabled
    example applications of this repository and their integration deltas,
    mirroring the paper's bat / Caddy / Java-netcat case study. *)

type case = {
  app : string;
  upstream_equivalent : string;
  loc_delta : int;
  integration_points : string list;
}

val cases : case list
val print_app_effort : Buffer.t -> unit
