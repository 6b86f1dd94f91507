type t = { table : (int, string) Hashtbl.t }

let create () = { table = Hashtbl.create 16 }

let register t ~port ~app =
  match Hashtbl.find_opt t.table port with
  | Some owner -> Error (Printf.sprintf "port %d already registered to %s" port owner)
  | None ->
      Hashtbl.replace t.table port app;
      Ok ()

type delivery = Delivered of string | No_listener

(* The per-packet overhead the dispatcher added in practice: it must
   re-parse the SCION header to find the destination port, then copy the
   payload across a Unix domain socket. We perform a real pass over the
   bytes so benchmarks measure genuine work, not a sleep. *)
let overhead_touch payload =
  let acc = ref 0 in
  String.iter (fun c -> acc := (!acc + Char.code c) land 0xFFFF) payload;
  !acc

let dispatch t ~dst_port ~payload =
  let _checksum = overhead_touch payload in
  match Hashtbl.find_opt t.table dst_port with
  | Some _app -> Delivered (String.sub payload 0 (String.length payload)) (* UDS copy *)
  | None -> No_listener

module Direct = struct
  type socket = { port : int }

  let open_socket ~port = { port }
  let deliver s ~payload =
    ignore s.port;
    payload
end

let model_throughput ~mode ~cores ~per_packet_us ~dispatcher_overhead_us =
  match mode with
  | `Dispatcher ->
      (* Every packet serialises through the dispatcher's single queue. *)
      1e6 /. (per_packet_us +. dispatcher_overhead_us)
  | `Dispatcherless ->
      (* RSS spreads flows across cores; per-core budget multiplies. *)
      float_of_int cores *. (1e6 /. per_packet_us)
