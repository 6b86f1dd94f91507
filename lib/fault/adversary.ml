module Ia = Scion_addr.Ia

type op =
  | Corrupt_beacons of { compromised : Ia.t; count : int }
  | Replay_beacons of { compromised : Ia.t; age_s : float; count : int }
  | Forge_hop_macs of { compromised : Ia.t; count : int }
  | Rogue_segments of { compromised : Ia.t; victim : Ia.t; count : int }
  | Wormhole_up of { a : Ia.t; b : Ia.t }
  | Wormhole_down of { a : Ia.t; b : Ia.t }
  | Scmp_reflect of { reflector : Ia.t; victim : Ia.t; count : int }
  | Volumetric_flood of { attacker : Ia.t; target : Ia.t; packets : int; duplicate_pct : int }
  | Trc_compromise of { isd : int }
  | Trc_rotate of { isd : int }

let op_to_string = function
  | Corrupt_beacons { compromised; count } ->
      Printf.sprintf "corrupt %d beacons at %s" count (Ia.to_string compromised)
  | Replay_beacons { compromised; age_s; count } ->
      Printf.sprintf "replay %d beacons (%gs stale) at %s" count age_s (Ia.to_string compromised)
  | Forge_hop_macs { compromised; count } ->
      Printf.sprintf "forge %d hop MACs at %s" count (Ia.to_string compromised)
  | Rogue_segments { compromised; victim; count } ->
      Printf.sprintf "register %d rogue segments for %s at %s" count (Ia.to_string victim)
        (Ia.to_string compromised)
  | Wormhole_up { a; b } -> Printf.sprintf "wormhole up %s<->%s" (Ia.to_string a) (Ia.to_string b)
  | Wormhole_down { a; b } ->
      Printf.sprintf "wormhole down %s<->%s" (Ia.to_string a) (Ia.to_string b)
  | Scmp_reflect { reflector; victim; count } ->
      Printf.sprintf "reflect %d SCMP echoes off %s at %s" count (Ia.to_string reflector)
        (Ia.to_string victim)
  | Volumetric_flood { attacker; target; packets; duplicate_pct } ->
      Printf.sprintf "flood %s with %d frames (%d%% duplicates) from %s" (Ia.to_string target)
        packets duplicate_pct (Ia.to_string attacker)
  | Trc_compromise { isd } -> Printf.sprintf "compromise ISD %d root key" isd
  | Trc_rotate { isd } -> Printf.sprintf "rotate ISD %d TRC" isd

include Campaign.Make (struct
  type t = op

  let name = "Adversary"
end)

let salvo ?(jitter_s = 0.0) ~start_s ~rounds ~period_s ops =
  check_time "salvo" start_s;
  check_count "salvo" rounds;
  check_period "salvo" period_s;
  let stretch = jitter "salvo" jitter_s in
  fun rng ->
    let rec go i t acc =
      if i >= rounds then List.rev acc
      else
        let acc = List.rev_append (List.map (fun op -> { Campaign.at_s = t; op }) ops) acc in
        go (i + 1) (t +. period_s +. stretch rng) acc
    in
    go 0 start_s []

let wormhole ~a ~b ~from_s ~to_s =
  span "wormhole" ~from_s ~to_s (Wormhole_up { a; b }) (Wormhole_down { a; b })

let beacon_corruption ~compromised ~from_s ~until_s ~period_s ~count =
  check_count "beacon_corruption" count;
  every ~period_s ~until_s from_s [ Corrupt_beacons { compromised; count } ]

let beacon_replay ~compromised ~from_s ~until_s ~period_s ~age_s ~count =
  check_count "beacon_replay" count;
  check_time "beacon_replay" age_s;
  every ~period_s ~until_s from_s [ Replay_beacons { compromised; age_s; count } ]

let mac_forgery ~compromised ~from_s ~until_s ~period_s ~count =
  check_count "mac_forgery" count;
  every ~period_s ~until_s from_s [ Forge_hop_macs { compromised; count } ]

let segment_poisoning ~compromised ~victim ~from_s ~until_s ~period_s ~count =
  check_count "segment_poisoning" count;
  every ~period_s ~until_s from_s [ Rogue_segments { compromised; victim; count } ]

let reflection ~reflector ~victim ~from_s ~until_s ~period_s ~count =
  check_count "reflection" count;
  every ~period_s ~until_s from_s [ Scmp_reflect { reflector; victim; count } ]

let flood ~attacker ~target ~from_s ~until_s ~period_s ~packets ~duplicate_pct =
  check_count "flood" packets;
  if duplicate_pct < 0 || duplicate_pct > 100 then
    invalid "flood" "duplicate_pct must be in [0, 100] (got %d)" duplicate_pct;
  every ~period_s ~until_s from_s [ Volumetric_flood { attacker; target; packets; duplicate_pct } ]

let compromise_drill ~isd ~at_s ~rotate_after_s =
  check_time "compromise_drill" at_s;
  check_time "compromise_drill" rotate_after_s;
  fun _rng ->
    [
      { Campaign.at_s; op = Trc_compromise { isd } };
      { at_s = at_s +. rotate_after_s; op = Trc_rotate { isd } };
    ]
