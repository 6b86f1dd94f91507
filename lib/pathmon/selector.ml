module M = Telemetry.Metrics

type config = {
  loss_penalty_ms : float;
  dev_weight : float;
  switch_margin : float;
  hold_ticks : int;
  min_probes : int;
}

let default_config =
  {
    loss_penalty_ms = 250.0;
    dev_weight = 2.0;
    switch_margin = 0.10;
    hold_ticks = 2;
    min_probes = 3;
  }

let make_config ?(loss_penalty_ms = default_config.loss_penalty_ms)
    ?(dev_weight = default_config.dev_weight)
    ?(switch_margin = default_config.switch_margin)
    ?(hold_ticks = default_config.hold_ticks)
    ?(min_probes = default_config.min_probes) () =
  let non_negative name v =
    if Float.is_nan v || v < 0.0 then
      invalid_arg (Printf.sprintf "Selector.make_config: %s must be >= 0 (got %g)" name v)
  in
  non_negative "loss_penalty_ms" loss_penalty_ms;
  non_negative "dev_weight" dev_weight;
  non_negative "switch_margin" switch_margin;
  if hold_ticks < 1 then
    invalid_arg (Printf.sprintf "Selector.make_config: hold_ticks must be >= 1 (got %d)" hold_ticks);
  if min_probes < 0 then
    invalid_arg (Printf.sprintf "Selector.make_config: min_probes must be >= 0 (got %d)" min_probes);
  { loss_penalty_ms; dev_weight; switch_margin; hold_ticks; min_probes }

type candidate = {
  fingerprint : string;
  static_ms : float;
  estimator : Estimator.t option;
}

let score config c =
  match c.estimator with
  | Some est when Estimator.probes est >= config.min_probes ->
      let base =
        match Estimator.rtt_ewma_ms est with
        | Some srtt -> srtt +. (config.dev_weight *. Estimator.rtt_deviation_ms est)
        | None ->
            (* Every windowed probe was lost: the static estimate is all we
               have, and the loss penalty below does the real work. *)
            c.static_ms
      in
      base +. (config.loss_penalty_ms *. Estimator.loss_rate est)
  | _ -> c.static_ms

type obs = {
  o_switches : M.counter;
  o_returns : M.counter;
  o_active_score : M.gauge;
}

type t = {
  config : config;
  mutable challenger : string option;  (** Candidate currently winning the hold count. *)
  mutable streak : int;
  obs : obs option;
}

let create ?metrics ?(labels = []) ?(config = default_config) () =
  let config =
    make_config ~loss_penalty_ms:config.loss_penalty_ms ~dev_weight:config.dev_weight
      ~switch_margin:config.switch_margin ~hold_ticks:config.hold_ticks
      ~min_probes:config.min_probes ()
  in
  let obs =
    Option.map
      (fun registry ->
        {
          o_switches = M.counter registry ~labels "pathmon.selector.switches";
          o_returns = M.counter registry ~labels "pathmon.selector.returns";
          o_active_score = M.gauge registry ~labels "pathmon.selector.active_score";
        })
      metrics
  in
  { config; challenger = None; streak = 0; obs }

(* The deterministic "best" candidate: lowest score, ties towards the lower
   static latency then the lexicographically smaller fingerprint. *)
let best config candidates =
  match candidates with
  | [] -> invalid_arg "Selector.choose: empty candidate list"
  | first :: rest ->
      List.fold_left
        (fun ((acc, acc_score) as kept) c ->
          let s = score config c in
          if
            s < acc_score
            || (Float.equal s acc_score
               && (c.static_ms < acc.static_ms
                  || (Float.equal c.static_ms acc.static_ms
                     && String.compare c.fingerprint acc.fingerprint < 0)))
          then (c, s)
          else kept)
        (first, score config first) rest

let preferred_static candidates =
  match candidates with
  | [] -> invalid_arg "Selector.choose: empty candidate list"
  | first :: rest ->
      List.fold_left
        (fun acc c ->
          if
            c.static_ms < acc.static_ms
            || (Float.equal c.static_ms acc.static_ms
               && String.compare c.fingerprint acc.fingerprint < 0)
          then c
          else acc)
        first rest

let record_switch t ~to_fp ~candidates =
  match t.obs with
  | None -> ()
  | Some o ->
      M.inc o.o_switches;
      if String.equal (preferred_static candidates).fingerprint to_fp then M.inc o.o_returns

let choose t ~candidates ~active =
  let config = t.config in
  let active_c = List.find_opt (fun c -> String.equal c.fingerprint active) candidates in
  let best_c, best_score = best config candidates in
  let decided =
    match active_c with
    | None ->
        (* The active path left the candidate set (expired, revoked, hard
           down): switch immediately — there is nothing to hold onto. *)
        t.challenger <- None;
        t.streak <- 0;
        if not (String.equal best_c.fingerprint active) then
          record_switch t ~to_fp:best_c.fingerprint ~candidates;
        best_c
    | Some active_c ->
        let active_score = score config active_c in
        (* Asymmetric hysteresis: abandoning the current path needs the
           full margin, but moving back onto the statically-preferred
           candidate only needs a sustained advantage — otherwise a
           preferred path whose static edge is smaller than the margin
           could never be returned to after it recovers. *)
        let margin_factor =
          if String.equal best_c.fingerprint (preferred_static candidates).fingerprint then 1.0
          else 1.0 -. config.switch_margin
        in
        let beats_margin =
          (not (String.equal best_c.fingerprint active))
          && best_score < active_score *. margin_factor
        in
        if not beats_margin then begin
          t.challenger <- None;
          t.streak <- 0;
          active_c
        end
        else begin
          (match t.challenger with
          | Some fp when String.equal fp best_c.fingerprint -> t.streak <- t.streak + 1
          | _ ->
              t.challenger <- Some best_c.fingerprint;
              t.streak <- 1);
          if t.streak >= config.hold_ticks then begin
            t.challenger <- None;
            t.streak <- 0;
            record_switch t ~to_fp:best_c.fingerprint ~candidates;
            best_c
          end
          else active_c
        end
  in
  (match t.obs with
  | None -> ()
  | Some o -> M.set o.o_active_score (score config decided));
  decided.fingerprint

