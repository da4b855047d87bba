type env = unit -> unit

let iter env = env ()

let batch env n =
  for _ = 1 to n do
    iter env
  done

(* The one server every identifier is local to, as a daemon runs it: a
   static engine behind a driver whose sends are discarded, so one
   datagram costs decode, engine step and the encode of each effect. *)
let lone_server ?config () =
  let view =
    {
      I3.Server.owns = (fun _ -> true);
      next_hop = (fun _ -> None);
      successor_addr = (fun () -> None);
      predecessor_addr = (fun () -> None);
    }
  in
  let metrics = Obs.Metrics.create () in
  Transport.Driver.create ~metrics ~send:ignore
    (I3.Engine.create_static ~addr:0 ~id:Id.zero ~view ?config ~metrics ())

let feed driver frames =
  let cursor = ref 0 in
  fun () ->
    Transport.Driver.on_datagram driver ~now:0. ~src:1 frames.(!cursor);
    cursor := (!cursor + 1) mod Array.length frames

let owner = 1

let forward_env_triggers = 4096

let forward_env ~payload ~seed () =
  let driver = lone_server () in
  let table =
    I3.Server.triggers (I3.Engine.server (Transport.Driver.engine driver))
  in
  let rng = Rng.of_int (seed + 17) in
  (* Background triggers: the table the paper loads is hash-based, so
     match time is independent of this count — the benchmark can show
     that. *)
  for _ = 1 to forward_env_triggers do
    I3.Trigger_table.insert table ~now:0. ~expires:1e12
      (I3.Trigger.to_host ~id:(Id.random rng) ~owner)
  done;
  let target = Id.random rng in
  I3.Trigger_table.insert table ~now:0. ~expires:1e12
    (I3.Trigger.to_host ~id:target ~owner);
  feed driver
    [|
      I3.Packet.encode
        (I3.Packet.make ~stack:[ I3.Packet.Sid target ]
           ~payload:(Workload.payload rng payload) ());
    |]

let insert_env ~seed () =
  let rng = Rng.of_int (seed + 23) in
  feed (lone_server ())
    (Array.init 4096 (fun _ ->
         I3.Codec.encode
           (I3.Message.Insert
              {
                trigger = I3.Trigger.to_host ~id:(Id.random rng) ~owner;
                token = None;
              })))

let route_env ~n_nodes ~seed () =
  if n_nodes < 2 then invalid_arg "Microbench.route_env: need >= 2 nodes";
  let rng = Rng.of_int seed in
  let oracle = Chord.Oracle.random rng ~n:n_nodes in
  let self = Chord.Oracle.id oracle 0 in
  let ft = Chord.Finger_table.create ~self in
  let peer_of i =
    { Chord.Finger_table.id = Chord.Oracle.id oracle i; addr = i }
  in
  Chord.Finger_table.fill_from ft (fun key ->
      peer_of (Chord.Oracle.successor_index oracle key));
  (* The prototype augments the finger list with a cache that ends up
     holding every server (Sec. V-D) — that cache is what makes Fig. 11
     linear in n. *)
  let cache = List.init n_nodes peer_of in
  let keys = Array.init 1024 (fun _ -> Id.random rng) in
  let cursor = ref 0 in
  let payload = Workload.payload rng 0 in
  fun () ->
    let key = keys.(!cursor) in
    cursor := (!cursor + 1) mod Array.length keys;
    let _next = Chord.Finger_table.closest_preceding ft ~extra:cache key in
    ignore
      (I3.Packet.encode
         (I3.Packet.make ~stack:[ I3.Packet.Sid key ] ~payload ()))

type throughput = {
  payload : int;
  packets_per_sec : float;
  user_mbps : float;
}

let throughput ~payload ~seed () =
  let env = forward_env ~payload ~seed () in
  (* Warm up allocators and caches. *)
  batch env 1000;
  let start = Unix.gettimeofday () in
  let deadline = start +. 0.5 in
  let count = ref 0 in
  while Unix.gettimeofday () < deadline do
    batch env 200;
    count := !count + 200
  done;
  let elapsed = Unix.gettimeofday () -. start in
  let pps = float_of_int !count /. elapsed in
  {
    payload;
    packets_per_sec = pps;
    user_mbps = pps *. float_of_int payload *. 8. /. 1e6;
  }

let time_per_iter_ns env =
  batch env 1000;
  let samples = Array.make 20 0. in
  let chunk = 1_000 in
  for s = 0 to 19 do
    let t0 = Unix.gettimeofday () in
    batch env chunk;
    let t1 = Unix.gettimeofday () in
    samples.(s) <- (t1 -. t0) *. 1e9 /. float_of_int chunk
  done;
  (Stats.mean samples, Stats.stdev samples)
