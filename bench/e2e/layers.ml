(* Per-layer costs of the traced run.  Each layer's public functions are
   called from here, one call timed at a time, on the workload's own
   frames and triggers; the daemons carry no stamps of their own yet.
   The engine-level numbers come from a replica: two [I3.Engine]s with
   the live members' addresses and node ids, joined into a ring in
   memory and loaded with the workload's triggers. *)

let now_ns = Fleet.now_ns
let reps = 20_000
let warmup = 1_000

(* [f (prepare i)] timed per call, [prepare] untimed: ns samples, and
   beside each the slower of the speed probes just before and after. *)
let time_calls speed prepare f =
  let s = Samples.create () and worst = Samples.create () in
  for i = 0 to warmup + reps - 1 do
    let x = prepare i in
    let p0 = Speed.probe speed in
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (f x));
    let dt = now_ns () - t0 in
    let p1 = Speed.probe speed in
    if i >= warmup then begin
      Samples.add s (float_of_int dt);
      Samples.add worst (Float.max p0 p1)
    end
  done;
  (s, worst)

(* Two engines as i3d builds them, stepped into one converged ring over an
   in-memory wire. *)
let replica_ring cluster =
  let metrics = Obs.Metrics.create () in
  let chord_config =
    {
      Chord.Protocol.default_config with
      stabilize_period = Fleet.config.stabilize_ms;
      fix_fingers_period = Float.max 1. (Fleet.config.stabilize_ms /. 2.);
      fingers_per_round = 64;
      rpc_timeout = Fleet.config.rpc_timeout_ms;
    }
  in
  let members = Harness.Cluster.members cluster in
  let engines =
    List.map
      (fun (m : Harness.Cluster.member) ->
        ( m.addr,
          I3.Engine.create ~seed:(m.port + 1) ~addr:m.addr
            ~id:(Harness.Cluster.node_id m)
            ~join:(List.filter (( <> ) m.addr) (Harness.Cluster.addrs cluster))
            ~chord_config ~metrics () ))
      members
  in
  let rec interpret now src effects =
    List.iter
      (fun eff ->
        match I3.Engine.encode_effect eff with
        | Some (dst, bytes) -> (
            match (List.assoc_opt dst engines, I3.Engine.decode bytes) with
            | Some e, Ok frame ->
                interpret now dst
                  (I3.Engine.step e ~now (I3.Engine.Frame { src; frame }))
            | _ -> ())
        | None -> ())
      effects
  in
  let converged () =
    List.for_all
      (fun (addr, e) ->
        match Chord.Protocol.successor (I3.Engine.chord e) with
        | Some p -> p.addr <> addr
        | None -> false)
      engines
  in
  let rec form now =
    List.iter
      (fun (addr, e) -> interpret now addr (I3.Engine.step e ~now I3.Engine.Tick))
      engines;
    if converged () then now
    else if now > 60_000. then failwith "the replica ring did not form"
    else form (now +. 10.)
  in
  let now = form 0. in
  (List.map snd engines, List.map fst engines, now)

let measure (lg : Loadgen.t) cluster =
  let time_calls prepare f = time_calls lg.run.speed prepare f in
  let inp = lg.inp in
  let w = inp.w in
  let host = Transport.Udp.local_addr lg.udp in
  let engines, addrs, now = replica_ring cluster in
  let engine_at addr = List.assoc addr (List.combine addrs engines) in
  let other addr = List.find (( <> ) addr) addrs in
  let frame_of bytes =
    match I3.Engine.decode bytes with
    | Ok f -> I3.Engine.Frame { src = host; frame = f }
    | Error e -> failwith e
  in
  let insert_frame i =
    frame_of
      (I3.Codec.encode
         (I3.Message.Insert { trigger = lg.triggers.(i); token = None }))
  in
  Array.iteri
    (fun i _ ->
      let owner = engine_at lg.owner.(i / w.fanout) in
      ignore (I3.Engine.step owner ~now (insert_frame i)))
    lg.triggers;
  let n = Array.length lg.triggers in
  let id_of seq = Loadgen.target inp seq in
  let owner_of seq = lg.owner.(id_of seq) in
  let table_of seq =
    I3.Server.triggers (I3.Engine.server (engine_at (owner_of seq)))
  in
  let deliver seq =
    I3.Engine.Deliver
      {
        dst = host;
        stack =
          (if w.fanout = 1 then []
           else [ I3.Packet.Sid inp.residual.(seq mod w.fanout) ]);
        payload = Loadgen.payload inp seq;
        trace = 0;
      }
  in
  let deliver_bytes = snd (Option.get (I3.Engine.encode_effect (deliver 0))) in
  let data i = Loadgen.data_frame inp i in
  (* Sockets: a sink for sends (drained untimed) and a receiver with one
     datagram queued before each timed [poll]. *)
  let src = Transport.Udp.create () in
  let sink = Transport.Udp.create () and rx = Transport.Udp.create () in
  let sink_addr = Transport.Udp.local_addr sink in
  let rx_addr = Transport.Udp.local_addr rx in
  let udp_send =
    time_calls
      (fun i -> if i mod 16 = 0 then Transport.Udp.poll sink ~now:0.)
      (fun () -> Transport.Udp.send src ~dst:sink_addr deliver_bytes)
  in
  let udp_recv =
    time_calls
      (fun i -> Transport.Udp.send src ~dst:rx_addr (data i))
      (fun () -> Transport.Udp.poll rx ~now:0.)
  in
  List.iter Transport.Udp.close [ src; sink; rx ];
  let decode = time_calls data I3.Engine.decode in
  let encode = time_calls deliver I3.Engine.encode_effect in
  let step_match =
    time_calls
      (fun i -> (engine_at (owner_of i), frame_of (data i)))
      (fun (e, f) -> I3.Engine.step e ~now f)
  in
  let step_relay =
    time_calls
      (fun i -> (engine_at (other (owner_of i)), frame_of (data i)))
      (fun (e, f) -> I3.Engine.step e ~now f)
  in
  let step_refresh =
    time_calls
      (fun i ->
        let t = i mod n in
        (engine_at lg.owner.(t / w.fanout), insert_frame t))
      (fun (e, f) -> I3.Engine.step e ~now f)
  in
  let table_match =
    time_calls
      (fun i -> (table_of i, inp.ids.(id_of i)))
      (fun (tbl, id) -> I3.Trigger_table.find_matches tbl ~now id)
  in
  let table_insert =
    time_calls
      (fun i ->
        let t = i mod n in
        ( I3.Server.triggers
            (I3.Engine.server (engine_at lg.owner.(t / w.fanout))),
          lg.triggers.(t) ))
      (fun (tbl, tr) ->
        I3.Trigger_table.insert tbl ~now ~expires:(now +. 30_000.) tr)
  in
  let next_hop =
    time_calls
      (fun i ->
        ( I3.Engine.chord (engine_at (other (owner_of i))),
          Id.routing_key inp.ids.(id_of i) ))
      (fun (node, key) -> Chord.Protocol.local_next_hop node key)
  in
  let limit = Speed.limit lg.run.speed in
  let fast (s, worst) = Speed.filter ~limit ~min_count:(reps / 10) s worst in
  let p50 x = Samples.middle_mean (fast x) in
  [
    ("udp.send_ns", p50 udp_send);
    ("udp.recv_ns", p50 udp_recv);
    ("codec.decode_ns", p50 decode);
    ("codec.encode_deliver_ns", p50 encode);
    ("engine.step_match_ns", p50 step_match);
    ("engine.step_relay_ns", p50 step_relay);
    ("engine.step_refresh_ns", p50 step_refresh);
    ("trigger_table.match_p50_ns", p50 table_match);
    ("trigger_table.match_p99_ns", Samples.band_mean (fast table_match) 98.5 99.5);
    ("trigger_table.insert_ns", p50 table_insert);
    ("chord.next_hop_ns", p50 next_hop);
  ]
