module Ia = Scion_addr.Ia

module Filter = struct
  type bucket = {
    rate : float;
    key : Scion_crypto.Cmac.key;  (** Expanded once; checks run at line rate. *)
    mutable tokens : float;
    mutable last : float;
    mutable window : int;  (** Dedup window index currently covered by [seen]. *)
    seen : (string, unit) Hashtbl.t;  (** Tags MAC-verified in the current window. *)
  }

  type t = {
    local_secret : string;
    allowed : (Ia.t, bucket) Hashtbl.t;
    mutable accepted_count : int;
    mutable rejected_count : int;
  }

  type verdict = Accepted | Bad_mac | Rate_limited | Unknown_source | Duplicate

  (* DRKey-style: both ends derive the key from the DMZ's secret and the
     peer AS identity; no per-flow state at the filter. *)
  let derive_key secret peer =
    Scion_crypto.Hmac.kdf ~secret ~info:("drkey|" ^ Ia.to_string peer) 16

  (* Length of the replay-suppression window, in seconds. *)
  let dedup_window_s = 1.0

  let create ~local_secret ~allowed () =
    let table = Hashtbl.create 16 in
    List.iter
      (fun (ia, rate) ->
        let key = Scion_crypto.Cmac.of_string (derive_key local_secret ia) in
        Hashtbl.replace table ia
          { rate; key; tokens = rate; last = 0.0; window = min_int; seen = Hashtbl.create 64 })
      allowed;
    {
      local_secret;
      allowed = table;
      accepted_count = 0;
      rejected_count = 0;
    }

  let host_key t ~peer = derive_key t.local_secret peer

  let authenticate ~key ~payload =
    Scion_crypto.Cmac.mac_truncated (Scion_crypto.Cmac.of_string key) payload 16

  (* scion-lint: hotpath -- per-packet LightningFilter admission check *)
  let check t ~now ~src ~payload ~tag =
    match Hashtbl.find_opt t.allowed src with
    | None ->
        t.rejected_count <- t.rejected_count + 1;
        Unknown_source
    | Some bucket ->
        (* scion-lint: allow hotpath-allocation -- dedup window index is float math by design *)
        let window = int_of_float (now /. dedup_window_s) in
        if window <> bucket.window then begin
          bucket.window <- window;
          Hashtbl.reset bucket.seen
        end;
        if Hashtbl.mem bucket.seen tag then begin
          (* Replayed tag within the dedup window: drop at hashtable-lookup
             cost, without re-hashing the payload. A forged payload riding
             a replayed tag would fail the MAC anyway, so suppressing
             before the hash never admits traffic the per-packet check
             would have admitted. *)
          t.rejected_count <- t.rejected_count + 1;
          Duplicate
        end
        else if not (Scion_crypto.Cmac.verify bucket.key ~msg:payload ~tag) then begin
          t.rejected_count <- t.rejected_count + 1;
          Bad_mac
        end
        else begin
          Hashtbl.replace bucket.seen tag ();
          (* Token bucket with a one-second burst. *)
          (* scion-lint: allow hotpath-allocation -- token bucket is float math by design *)
          let elapsed = Float.max 0.0 (now -. bucket.last) in
          bucket.last <- now;
          (* scion-lint: allow hotpath-allocation -- token bucket is float math by design *)
          bucket.tokens <- Float.min bucket.rate (bucket.tokens +. (elapsed *. bucket.rate));
          if bucket.tokens >= 1.0 then begin
            (* scion-lint: allow hotpath-allocation -- token bucket is float math by design *)
            bucket.tokens <- bucket.tokens -. 1.0;
            t.accepted_count <- t.accepted_count + 1;
            Accepted
          end
          else begin
            t.rejected_count <- t.rejected_count + 1;
            Rate_limited
          end
        end

  let check_batch t ~now items =
    List.map (fun (src, payload, tag) -> check t ~now ~src ~payload ~tag) items

  let accepted t = t.accepted_count
  let rejected t = t.rejected_count
end

module Hercules = struct
  type path_capacity = { rtt_ms : float; bandwidth_mbps : float }

  type plan = {
    total_mbps : float;
    completion_s : float;
    per_path_share : float list;
  }

  (* Ramp: ~8 RTTs of slow start before a path reaches its bottleneck
     bandwidth; negligible for bulk transfers but it keeps short transfers
     honest about multipath overhead. *)
  let ramp_s p = 8.0 *. p.rtt_ms /. 1000.0

  let single_path_completion ~size_gb p =
    let bits = size_gb *. 8e9 in
    ramp_s p +. (bits /. (p.bandwidth_mbps *. 1e6))

  let plan_transfer ~size_gb ~paths =
    if paths = [] then invalid_arg "Hercules.plan_transfer: no paths";
    let total = List.fold_left (fun a p -> a +. p.bandwidth_mbps) 0.0 paths in
    let shares = List.map (fun p -> p.bandwidth_mbps /. total) paths in
    let bits = size_gb *. 8e9 in
    (* Each path carries its share; completion is the slowest stripe. *)
    let completion =
      List.fold_left2
        (fun worst p share ->
          let t = ramp_s p +. (bits *. share /. (p.bandwidth_mbps *. 1e6)) in
          Float.max worst t)
        0.0 paths shares
    in
    { total_mbps = total; completion_s = completion; per_path_share = shares }
end
