type cache_result = {
  hops_with_cache : float;
  hops_without_cache : float;
}

(* Mean number of servers a data packet traverses, counted via the
   servers' i3.data_received counters. *)
let flows = 20
let packets_per_flow = 10

let measure_hops ~seed ~host_config =
  let metrics = Obs.Metrics.create () in
  let d = Transport.Deployment.create ~seed ~n_servers:64 ~metrics () in
  let packets = ref 0 in
  for _ = 1 to flows do
    let recv = Transport.Deployment.new_host d () in
    let send = Transport.Deployment.new_host d ?config:host_config () in
    let id = Transport.Host.new_private_id recv in
    Transport.Host.insert_trigger recv id;
    Transport.Deployment.run_for d 500.;
    for k = 1 to packets_per_flow do
      Transport.Host.send send id (string_of_int k);
      incr packets;
      Transport.Deployment.run_for d 200.
    done
  done;
  let received = Obs.Metrics.sum_counters metrics "i3.data_received" in
  float_of_int received /. float_of_int !packets

let sender_cache ?(seed = 1) () =
  let no_cache =
    { Transport.Host.default_config with Transport.Host.cache_ttl_ms = 0. }
  in
  {
    hops_with_cache = measure_hops ~seed ~host_config:None;
    hops_without_cache = measure_hops ~seed ~host_config:(Some no_cache);
  }

type replication_result = {
  delivered_with : int;
  delivered_without : int;
  attempts : int;
}

let replication_trial ~seed ~replicate =
  let config = { I3.Server.default_config with I3.Server.replicate } in
  let d =
    Transport.Deployment.create ~seed ~n_servers:32 ~server_config:config ()
  in
  let recv = Transport.Deployment.new_host d () in
  let delivered = ref 0 in
  Transport.Host.on_receive recv (fun ~stack:_ ~payload:_ -> incr delivered);
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Deployment.run_for d 1_000.;
  let owner = Chord.Oracle.responsible (Transport.Deployment.oracle d) id in
  Transport.Deployment.fail_server d owner;
  (* one packet inside the failure window, before any refresh *)
  let send = Transport.Deployment.new_host d () in
  Transport.Host.send send id "probe";
  Transport.Deployment.run_for d 1_000.;
  !delivered

let trials = 20

let replication ?(seed = 1) () =
  let count replicate =
    let total = ref 0 in
    for k = 0 to trials - 1 do
      total := !total + replication_trial ~seed:(seed + k) ~replicate
    done;
    !total
  in
  {
    delivered_with = count true;
    delivered_without = count false;
    attempts = trials;
  }

type constraint_result = {
  ns_with_check : float;
  ns_without_check : float;
}

let constrained_insert_ns ~seed ~check =
  let config =
    { I3.Server.default_config with I3.Server.check_constraints = check }
  in
  let rng = Rng.of_int (seed + 5) in
  let insert () =
    let target = Id.random rng in
    let id = Id_constraints.left_constrained ~base:(Id.random rng) ~target in
    let trigger =
      I3.Trigger.make ~id ~stack:[ I3.Packet.Sid target ] ~owner:1
    in
    I3.Codec.encode (I3.Message.Insert { trigger; token = None })
  in
  fst
    (Microbench.time_per_iter_ns
       (Microbench.feed
          (Microbench.lone_server ~config ())
          (Array.init 2048 (fun _ -> insert ()))))

let constraints ?(seed = 1) () =
  {
    ns_with_check = constrained_insert_ns ~seed ~check:true;
    ns_without_check = constrained_insert_ns ~seed ~check:false;
  }

type challenge_result = {
  ack_ms_with : float;
  ack_ms_without : float;
}

let ack_latency ~seed ~challenge =
  let config =
    { I3.Server.default_config with I3.Server.challenge_hosts = challenge }
  in
  let d =
    Transport.Deployment.create ~seed ~n_servers:1 ~server_config:config ()
  in
  (* put the host one 5 ms hop away from the server so control-path RTTs
     are visible in virtual time *)
  let host = Transport.Deployment.new_host d ~site:1 () in
  let acked_at = ref nan in
  Net.set_tap (Transport.Deployment.net d) (fun ~src:_ ~dst bytes ->
      match I3.Codec.decode bytes with
      | Ok (I3.Message.Insert_ack _) when dst = Transport.Host.addr host ->
          if Float.is_nan !acked_at then acked_at := Transport.Deployment.now d
      | _ -> ());
  let t0 = Transport.Deployment.now d in
  Transport.Host.insert_trigger host (Id.random (Rng.of_int (seed + 9)));
  Transport.Deployment.run_for d 1_000.;
  !acked_at -. t0

let challenges ?(seed = 1) () =
  {
    ack_ms_with = ack_latency ~seed ~challenge:true;
    ack_ms_without = ack_latency ~seed ~challenge:false;
  }
