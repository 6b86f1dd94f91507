module M = Telemetry.Metrics

type config = {
  rtt_alpha : float;
  dev_beta : float;
  loss_window : int;
}

let default_config = { rtt_alpha = 0.25; dev_beta = 0.125; loss_window = 16 }

let make_config ?(rtt_alpha = default_config.rtt_alpha) ?(dev_beta = default_config.dev_beta)
    ?(loss_window = default_config.loss_window) () =
  let gain name v =
    if Float.is_nan v || v <= 0.0 || v > 1.0 then
      invalid_arg (Printf.sprintf "Estimator.make_config: %s must be in (0, 1] (got %g)" name v)
  in
  gain "rtt_alpha" rtt_alpha;
  gain "dev_beta" dev_beta;
  if loss_window < 1 then
    invalid_arg (Printf.sprintf "Estimator.make_config: loss_window must be >= 1 (got %d)" loss_window);
  { rtt_alpha; dev_beta; loss_window }

type obs = {
  o_rtt : M.gauge;
  o_dev : M.gauge;
  o_loss : M.gauge;
  o_ok : M.counter;
  o_lost : M.counter;
}

type t = {
  config : config;
  mutable srtt_ms : float option;
  mutable dev_ms : float;
  window : bool array;  (** true = lost; ring buffer of the last outcomes. *)
  mutable window_next : int;
  mutable window_filled : int;
  mutable probe_count : int;
  obs : obs option;
}

let make_obs registry ~labels =
  {
    o_rtt = M.gauge registry ~labels "pathmon.rtt_ewma_ms";
    o_dev = M.gauge registry ~labels "pathmon.rtt_deviation_ms";
    o_loss = M.gauge registry ~labels "pathmon.loss_rate";
    o_ok = M.counter registry ~labels:(("outcome", "ok") :: labels) "pathmon.probes";
    o_lost = M.counter registry ~labels:(("outcome", "lost") :: labels) "pathmon.probes";
  }

let create ?metrics ?(labels = []) ?(config = default_config) () =
  (* Re-validate: a record literal can bypass make_config. *)
  let config =
    make_config ~rtt_alpha:config.rtt_alpha ~dev_beta:config.dev_beta
      ~loss_window:config.loss_window ()
  in
  {
    config;
    srtt_ms = None;
    dev_ms = 0.0;
    window = Array.make config.loss_window false;
    window_next = 0;
    window_filled = 0;
    probe_count = 0;
    obs = Option.map (fun registry -> make_obs registry ~labels) metrics;
  }

let loss_rate t =
  if t.window_filled = 0 then 0.0
  else begin
    let lost = ref 0 in
    for i = 0 to t.window_filled - 1 do
      if t.window.(i) then incr lost
    done;
    float_of_int !lost /. float_of_int t.window_filled
  end

let push_window t lost =
  t.window.(t.window_next) <- lost;
  t.window_next <- (t.window_next + 1) mod t.config.loss_window;
  if t.window_filled < t.config.loss_window then t.window_filled <- t.window_filled + 1

let observe t outcome =
  t.probe_count <- t.probe_count + 1;
  (match outcome with
  | `Lost ->
      push_window t true;
      (match t.obs with None -> () | Some o -> M.inc o.o_lost)
  | `Rtt ms ->
      if not (Float.is_finite ms) || ms < 0.0 then
        invalid_arg (Printf.sprintf "Estimator.observe: RTT must be finite and >= 0 (got %g)" ms);
      push_window t false;
      (match t.srtt_ms with
      | None ->
          t.srtt_ms <- Some ms;
          t.dev_ms <- 0.0
      | Some srtt ->
          let err = Float.abs (srtt -. ms) in
          t.dev_ms <- ((1.0 -. t.config.dev_beta) *. t.dev_ms) +. (t.config.dev_beta *. err);
          t.srtt_ms <- Some (((1.0 -. t.config.rtt_alpha) *. srtt) +. (t.config.rtt_alpha *. ms)));
      (match t.obs with None -> () | Some o -> M.inc o.o_ok));
  match t.obs with
  | None -> ()
  | Some o ->
      (match t.srtt_ms with None -> () | Some srtt -> M.set o.o_rtt srtt);
      M.set o.o_dev t.dev_ms;
      M.set o.o_loss (loss_rate t)

let rtt_ewma_ms t = t.srtt_ms
let rtt_deviation_ms t = t.dev_ms
let probes t = t.probe_count
