(* Benchmark harness writing BENCH_i3.json: seven sections (observability,
   trigger_table, control_plane, codec, engine, scrape, substrate) whose
   deterministic metrics bench_gate compares against bench/baseline.json.
   I3_BENCH_SMOKE=1 runs every section at CI scale; I3_BENCH_OUT names
   the output file.  The paper's figures and tables are printed by
   bin/i3_sim (fig8, fig9, micro, ablations, bakeoff, scale), not here. *)

(* --- observability: traced end-to-end run -> BENCH_i3.json --- *)

let smoke =
  match Sys.getenv_opt "I3_BENCH_SMOKE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let bench_out =
  match Sys.getenv_opt "I3_BENCH_OUT" with
  | Some p -> p
  | None -> "BENCH_i3.json"

let rate_per_sec f n =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    f ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  if dt <= 0. then nan else float_of_int n /. dt

(* Wall-clock rates of the two trigger-table operations every data packet
   and every refresh exercises (insert is the paper's 12.5 us number in
   message form; here we time the table itself). *)
let trigger_table_rates () =
  let rng = Rng.of_int 11 in
  let n = if smoke then 2048 else 8192 in
  let triggers =
    Array.init n (fun i ->
        I3.Trigger.to_host ~id:(Id.random rng) ~owner:(i land 0xff))
  in
  let tbl = I3.Trigger_table.create () in
  let i = ref 0 in
  let insert_rate =
    rate_per_sec
      (fun () ->
        I3.Trigger_table.insert tbl ~now:0. ~expires:1e12 triggers.(!i mod n);
        incr i)
      (4 * n)
  in
  let j = ref 0 in
  let match_rate =
    rate_per_sec
      (fun () ->
        ignore
          (I3.Trigger_table.find_matches tbl ~now:1.
             triggers.(!j mod n).I3.Trigger.id);
        incr j)
      (4 * n)
  in
  (insert_rate, match_rate)

(* Per-probe match latency with a large resident set: p99 at 10^6
   triggers is the number to watch, so each [find_matches] is timed
   individually with the ns monotonic clock and the tail is
   reported — a throughput mean would hide exactly the latency spikes a
   wholesale-scan structure produces.  Smoke mode shrinks the resident
   set but keeps the same JSON keys; the [mode] field at the top of
   BENCH_i3.json says which scale produced the numbers. *)
let section_trigger_table () =
  print_endline "=== trigger table: prefix hash table hot path ===";
  let insert_rate, match_rate = trigger_table_rates () in
  let resident = if smoke then 50_000 else 1_000_000 in
  let probes = if smoke then 20_000 else 100_000 in
  let rng = Rng.of_int 23 in
  let tbl = I3.Trigger_table.create () in
  let ids = Array.init resident (fun _ -> Id.random rng) in
  Array.iteri
    (fun i id ->
      I3.Trigger_table.insert tbl ~now:0. ~expires:1e12
        (I3.Trigger.to_host ~id ~owner:(i land 0xffff)))
    ids;
  (* Warm the path once, then probe resident ids in a large-stride walk
     so consecutive probes do not share a cached bucket. *)
  ignore (I3.Trigger_table.find_matches tbl ~now:1. ids.(0));
  let lat = Array.make probes 0 in
  for i = 0 to probes - 1 do
    let id = ids.(i * 7919 mod resident) in
    let t0 = Monotonic_clock.now () in
    ignore (I3.Trigger_table.find_matches tbl ~now:1. id);
    let t1 = Monotonic_clock.now () in
    lat.(i) <- Int64.to_int (Int64.sub t1 t0)
  done;
  Array.sort compare lat;
  let pct p =
    lat.(min (probes - 1) (int_of_float (p *. float_of_int probes)))
  in
  let p50 = pct 0.5 and p99 = pct 0.99 in
  Printf.printf "  rates: %.3g inserts/s, %.3g matches/s\n" insert_rate
    match_rate;
  Printf.printf "  match latency at %d resident: p50=%d ns  p99=%d ns\n\n"
    resident p50 p99;
  [
    ( "trigger_table",
      Json.Obj
        [
          ("inserts_per_sec", Json.Float insert_rate);
          ("matches_per_sec", Json.Float match_rate);
          ("resident_triggers", Json.Int resident);
          ("match_probes", Json.Int probes);
          ("match_p50_ns", Json.Float (float_of_int p50));
          ("match_p99_ns", Json.Float (float_of_int p99));
        ] );
  ]

(* --- control plane: spans + health over a no-fault Dynamic run --- *)

let section_control_plane () =
  print_endline "=== control plane: span latencies and health series ===";
  print_endline
    "a Dynamic (live-Chord) deployment with span collection and a health";
  print_endline
    "monitor scraping on the virtual clock; no faults, so every scrape";
  print_endline "should judge Ok and the violation count must stay 0.";
  let n_servers = if smoke then 6 else 16 in
  let horizon = if smoke then 30_000. else 120_000. in
  let metrics = Obs.Metrics.create () in
  (* Room for every operation event of the run: [durations_ms] skips an
     operation whose opening event was evicted, and the gated
     percentiles are over all of them.  The full-scale run records about
     270k events. *)
  let capacity = 1 lsl 19 in
  let spans = Obs.Trace.create ~capacity () in
  let d = Transport.Dynamic.create ~seed:9 ~metrics ~spans () in
  for i = 0 to n_servers - 1 do
    ignore (Transport.Dynamic.add_server d ~site:i ())
  done;
  Transport.Dynamic.run_for d 6_000.;
  (* Hosts on a 2 s refresh give the span ring plenty of
     trigger-refresh round-trips inside the horizon. *)
  let host_config =
    { Transport.Host.default_config with Transport.Host.refresh_period_ms = 2_000. }
  in
  let recv = Transport.Dynamic.new_host d ~config:host_config () in
  let send = Transport.Dynamic.new_host d ~config:host_config () in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  let r =
    Harness.Recovery.create (Harness.Fleet.sim d ~sender:send ~receiver:recv)
  in
  let flow = Harness.Recovery.start_flow r ~name:"flow1" id in
  let rules =
    Harness.Recovery.sim_rules flow
    @ [
        (* Cumulative, so sticky: a whole-run SLO, not a recovery signal. *)
        {
          Obs.Health.rule = "lookup-p99";
          signal =
            Obs.Health.Latest
              {
                metric = "chord.lookup_ms.p99";
                labels = [ ("instance", Chord.Protocol.ring_label) ];
              };
          bound = Obs.Health.At_most { ok = 5_000.; degraded = 20_000. };
        };
      ]
  in
  let monitor = Harness.Recovery.monitor r ~rules in
  Transport.Dynamic.run_for d horizon;
  Harness.Recovery.stop_flow flow;
  Harness.Recovery.stop_monitor monitor;
  if Obs.Trace.recorded spans > capacity then
    failwith "control plane: operation ring overflowed";
  let finished =
    List.length
      (List.filter
         (fun (e : Obs.Trace.event) ->
           match e.kind with Obs.Trace.Done _ -> true | _ -> false)
         (Obs.Trace.events spans))
  in
  let pct op =
    let ds = Obs.Trace.durations_ms ~op spans in
    let q p = if Array.length ds = 0 then 0. else Stats.percentile p ds in
    ( Array.length ds,
      Json.Obj
        [
          ("count", Json.Int (Array.length ds));
          ("p50_ms", Json.Float (q 50.));
          ("p90_ms", Json.Float (q 90.));
          ("p99_ms", Json.Float (q 99.));
        ] )
  in
  let n_lookup, lookup_json = pct "chord.lookup" in
  let n_refresh, refresh_json = pct "i3.trigger_refresh" in
  let n_rpc, rpc_json = pct "chord.rpc" in
  let health = Harness.Recovery.health monitor in
  let ok, degraded, violated = Obs.Health.counts health in
  Printf.printf "  spans: %d finished (%d lookups, %d rpcs, %d refreshes)\n"
    finished n_lookup n_rpc n_refresh;
  Printf.printf "  health: %d scrapes -> %d ok / %d degraded / %d violated\n"
    (ok + degraded + violated) ok degraded violated;
  let series_rows =
    Obs.Series.all (Obs.Health.store health)
    |> List.filter (fun s ->
           match Obs.Series.name s with
           | "probe.sent" | "probe.received" | "chord.lookup_ms.p99" ->
               true
           | _ -> false)
    |> List.map (Obs.Sink.series_to_json ~tail:16)
  in
  [
    ( "spans",
      Json.Obj
        [
          ("finished", Json.Int finished);
          ("chord_lookup", lookup_json);
          ("chord_rpc", rpc_json);
          ("trigger_refresh", refresh_json);
        ] );
    ( "health",
      Json.Obj
        [
          ("scrapes", Json.Int (ok + degraded + violated));
          ("ok_scrapes", Json.Int ok);
          ("degraded_scrapes", Json.Int degraded);
          ("violated_scrapes", Json.Int violated);
          ( "last_evaluations",
            Json.List
              (List.map Obs.Sink.evaluation_to_json (Obs.Health.last health))
          );
          ("series", Json.List series_rows);
        ] );
  ]

let section_observability () =
  print_endline "=== observability: traced deployment run ===";
  print_endline
    "every data packet carries a trace id; hop counts, delivery ratio and";
  print_endline
    "drop causes below come from the trace collector, not ad-hoc counters.";
  let n_servers = if smoke then 8 else 32 in
  let n_pairs = if smoke then 8 else 24 in
  let rounds = if smoke then 20 else 80 in
  let loss = 0.01 in
  let metrics = Obs.Metrics.create () in
  let tracer = Obs.Trace.create ~capacity:(1 lsl 16) () in
  let d = Transport.Deployment.create ~seed:7 ~n_servers ~metrics ~tracer () in
  Net.apply (Transport.Deployment.net d) (Faults.Loss loss);
  let pairs =
    List.init n_pairs (fun _ ->
        let recv = Transport.Deployment.new_host d () in
        let send = Transport.Deployment.new_host d () in
        let id = Transport.Host.new_private_id recv in
        Transport.Host.insert_trigger recv id;
        (send, id))
  in
  Transport.Deployment.run_for d 200.;
  for _ = 1 to rounds do
    List.iter (fun (send, id) -> Transport.Host.send send id "obs") pairs;
    Transport.Deployment.run_for d 25.
  done;
  Transport.Deployment.run_for d 2000.;
  let hops_h =
    Obs.Metrics.histogram metrics "bench.route_hops"
      ~buckets:(Obs.Metrics.linear_buckets ~start:0. ~width:1. ~count:17)
  in
  let delivered = ref 0 and dropped = ref 0 in
  let drop_causes = Hashtbl.create 7 in
  List.iter
    (fun s ->
      if s.Obs.Trace.delivers > 0 then (
        incr delivered;
        Obs.Metrics.observe hops_h (float_of_int s.Obs.Trace.hops))
      else if s.Obs.Trace.drops > 0 then (
        incr dropped;
        List.iter
          (fun c ->
            Hashtbl.replace drop_causes c
              (1 + try Hashtbl.find drop_causes c with Not_found -> 0))
          s.Obs.Trace.drop_causes))
    (Obs.Trace.summaries tracer);
  let started = Obs.Trace.started tracer in
  let orphans = List.length (Obs.Trace.orphans tracer) in
  let ratio =
    if started = 0 then 0. else float_of_int !delivered /. float_of_int started
  in
  let q p = Obs.Metrics.quantile hops_h p in
  Printf.printf "  traces: %d started, %d delivered, %d dropped, %d orphaned\n"
    started !delivered !dropped orphans;
  Printf.printf "  delivery ratio %.4f at %.0f%% uniform loss\n" ratio
    (loss *. 100.);
  Printf.printf "  routing hops (transmissions/packet): p50=%.1f p90=%.1f p99=%.1f\n"
    (q 0.5) (q 0.9) (q 0.99);
  [
        ( "run",
          Json.Obj
            [
              ("servers", Json.Int n_servers);
              ("pairs", Json.Int n_pairs);
              ("rounds", Json.Int rounds);
              ("loss_rate", Json.Float loss);
            ] );
        ( "routing_hops",
          Json.Obj
            [
              ("count", Json.Int (Obs.Metrics.hist_count hops_h));
              ("mean", Json.Float (Obs.Metrics.hist_mean hops_h));
              ("p50", Json.Float (q 0.5));
              ("p90", Json.Float (q 0.9));
              ("p99", Json.Float (q 0.99));
            ] );
        ( "delivery",
          Json.Obj
            [
              ("sent", Json.Int started);
              ("delivered", Json.Int !delivered);
              ("dropped", Json.Int !dropped);
              ("orphans", Json.Int orphans);
              ("ratio", Json.Float ratio);
              ( "drop_causes",
                Json.Obj
                  (Hashtbl.fold
                     (fun c n acc -> (c, Json.Int n) :: acc)
                     drop_causes []
                  |> List.sort compare) );
            ] );
        ( "metrics",
          Json.List
            (List.map Obs.Sink.sample_to_json (Obs.Metrics.snapshot metrics))
        );
        ( "traces",
          Json.Obj
            [
              ("started", Json.Int started);
              ("events_recorded", Json.Int (Obs.Trace.recorded tracer));
            ] );
      ]

(* --- codec: wire encode/decode throughput + deterministic shape pins ---

   Byte sizes and the corpus decode-error count are exact functions of
   the corpus, so Eval.Gate pins them (a codec change that alters frame
   sizes or breaks a decoder must re-baseline deliberately); ns/op are
   wall-clock and reported unguarded. *)

let section_codec () =
  print_endline "=== codec: wire encode/decode ===";
  let rng = Rng.of_int 17 in
  let mk_id () = Id.random rng in
  let stack = [ I3.Packet.Sid (mk_id ()); I3.Packet.Saddr 0xbeef ] in
  let trigger = I3.Trigger.make ~id:(mk_id ()) ~stack ~owner:0x1234 in
  let data_packet =
    I3.Packet.make ~stack ~payload:(String.make 64 'x') ~trace:5 ()
  in
  let peer () = { Chord.Protocol.id = mk_id (); addr = 7 } in
  let i3_corpus =
    [
      I3.Message.Data data_packet;
      I3.Message.Insert { trigger; token = Some "tok-0123456789abcdef" };
      I3.Message.Remove { trigger };
      I3.Message.Challenge { trigger; token = "tok-0123456789abcdef" };
      I3.Message.Insert_ack { trigger; server = 0x42 };
      I3.Message.Cache_info { prefix = mk_id (); server = 0x42 };
      I3.Message.Cache_push
        { triggers = List.init 8 (fun _ -> (trigger, 30_000.)) };
      I3.Message.Pushback { id = mk_id (); dead = mk_id () };
      I3.Message.Replica { trigger; lifetime = 30_000. };
      I3.Message.Deliver
        { stack; payload = String.make 64 'x'; trace = 5 };
    ]
  in
  let chord_corpus =
    [
      Chord.Protocol.Lookup_step { key = mk_id (); token = 3; reply_to = 1 };
      Chord.Protocol.Lookup_reply
        { token = 3; result = Chord.Protocol.Done (peer ()) };
      Chord.Protocol.Get_state { token = 4; reply_to = 1 };
      Chord.Protocol.State
        { token = 4; self = peer (); pred = Some (peer ());
          succs = List.init 8 (fun _ -> peer ()) };
      Chord.Protocol.Notify
        { who = peer (); chain = List.init 8 (fun _ -> peer ()) };
    ]
  in
  let i3_frames = List.map I3.Codec.encode i3_corpus in
  let chord_frames = List.map Chord.Codec.encode chord_corpus in
  let total_bytes =
    List.fold_left (fun a s -> a + String.length s) 0 (i3_frames @ chord_frames)
  in
  let n_msgs = List.length i3_frames + List.length chord_frames in
  let decode_errors =
    List.length
      (List.filter Result.is_error (List.map I3.Codec.decode i3_frames))
    + List.length
        (List.filter Result.is_error (List.map Chord.Codec.decode chord_frames))
  in
  let iters = if smoke then 20_000 else 200_000 in
  let i3_arr = Array.of_list i3_corpus in
  let i3_frame_arr = Array.of_list i3_frames in
  let i = ref 0 in
  let encode_rate =
    rate_per_sec
      (fun () ->
        ignore (I3.Codec.encode i3_arr.(!i mod Array.length i3_arr));
        incr i)
      iters
  in
  let j = ref 0 in
  let decode_rate =
    rate_per_sec
      (fun () ->
        ignore (I3.Codec.decode i3_frame_arr.(!j mod Array.length i3_frame_arr));
        incr j)
      iters
  in
  let ns rate = if Float.is_nan rate then nan else 1e9 /. rate in
  let data_frame_bytes = String.length (I3.Packet.encode data_packet) in
  Printf.printf "  corpus: %d messages, %d wire bytes (%.1f bytes/msg)\n"
    n_msgs total_bytes
    (float_of_int total_bytes /. float_of_int n_msgs);
  Printf.printf "  data frame: %d B (48-byte header + 2 entries + 64 B payload)\n"
    data_frame_bytes;
  Printf.printf "  encode: %.0f ns/op   decode: %.0f ns/op   decode errors: %d\n"
    (ns encode_rate) (ns decode_rate) decode_errors;
  [
    ( "codec",
      Json.Obj
        [
          ("corpus_messages", Json.Int n_msgs);
          ("corpus_bytes", Json.Int total_bytes);
          ( "bytes_per_message",
            Json.Float (float_of_int total_bytes /. float_of_int n_msgs) );
          ("data_frame_bytes", Json.Int data_frame_bytes);
          ("decode_errors", Json.Int decode_errors);
          ("encode_ns_per_op", Json.Float (ns encode_rate));
          ("decode_ns_per_op", Json.Float (ns decode_rate));
        ] );
  ]

(* --- engine: sans-IO step throughput + deterministic effect shape ---

   The loopback scenario (two engines, fixed seeds, fixed virtual
   schedule) is a pure function of its inputs — the step/effect totals
   and whether the ring forms are pinned by Eval.Gate.  Steps/sec is
   wall-clock and reported unguarded. *)

let section_engine () =
  print_endline "=== engine: sans-IO step ===";
  (* Throughput: a single-node engine forwarding matched data packets,
     one event per step. *)
  let e =
    I3.Engine.create ~seed:9 ~addr:1 ~metrics:(Obs.Metrics.create ()) ()
  in
  let host = 0xbeef in
  let id = Id.name_hash "bench-engine" in
  ignore
    (I3.Engine.step e ~now:0.
       (I3.Engine.Insert_trigger (I3.Trigger.to_host ~id ~owner:host)));
  let pkt =
    I3.Packet.make ~stack:[ I3.Packet.Sid id ] ~payload:(String.make 64 'x') ()
  in
  let iters = if smoke then 20_000 else 200_000 in
  let now = ref 0. in
  let steps_per_sec =
    rate_per_sec
      (fun () ->
        now := !now +. 0.01;
        ignore (I3.Engine.step e ~now:!now (I3.Engine.Send_packet pkt)))
      iters
  in

  (* Deterministic loopback scenario: A bootstraps, B joins A, 2 s of
     virtual 10 ms ticks with instant in-memory delivery, then one
     trigger insert and one data packet across the formed ring. *)
  let fast_chord =
    {
      Chord.Protocol.default_config with
      stabilize_period = 50.;
      fix_fingers_period = 100.;
      rpc_timeout = 30.;
    }
  in
  let metrics = Obs.Metrics.create () in
  let a =
    I3.Engine.create ~seed:1 ~addr:1
      ~id:(Id.routing_key (Id.name_hash "bench-a"))
      ~chord_config:fast_chord ~metrics ()
  in
  let b =
    I3.Engine.create ~seed:2 ~addr:2
      ~id:(Id.routing_key (Id.name_hash "bench-b"))
      ~join:[ 1 ] ~chord_config:fast_chord ~metrics ()
  in
  let events = ref 0 and effects = ref 0 and delivers = ref 0 in
  let engine_at addr = if addr = 1 then a else b in
  let step eng ~now ev =
    incr events;
    let effs = I3.Engine.step eng ~now ev in
    List.iter
      (function
        | I3.Engine.Set_timer _ -> ()
        | I3.Engine.Deliver _ -> incr effects; incr delivers
        | _ -> incr effects)
      effs;
    effs
  in
  let rec interpret now src effs =
    List.iter
      (function
        | I3.Engine.Set_timer _ | I3.Engine.Deliver _ -> ()
        | eff -> (
            match I3.Engine.encode_effect eff with
            | None -> ()
            | Some (dst, bytes) when dst = 1 || dst = 2 -> (
                match I3.Engine.decode bytes with
                | Ok frame ->
                    interpret now dst
                      (step (engine_at dst) ~now
                         (I3.Engine.Frame { src; frame }))
                | Error _ -> ())
            | Some _ -> ()))
      effs
  in
  let vnow = ref 0. in
  while !vnow < 2_000. do
    interpret !vnow 1 (step a ~now:!vnow I3.Engine.Tick);
    interpret !vnow 2 (step b ~now:!vnow I3.Engine.Tick);
    vnow := !vnow +. 10.
  done;
  let lid = Id.name_hash "bench-loopback" in
  interpret !vnow 1
    (step a ~now:!vnow
       (I3.Engine.Insert_trigger (I3.Trigger.to_host ~id:lid ~owner:0xd00d)));
  interpret !vnow 1
    (step a ~now:!vnow
       (I3.Engine.Send_packet
          (I3.Packet.make ~stack:[ I3.Packet.Sid lid ] ~payload:"b" ())));
  let succ_addr e =
    Option.map
      (fun p -> p.Chord.Protocol.addr)
      (Chord.Protocol.successor (I3.Engine.chord e))
  in
  let ring_formed =
    if succ_addr a = Some 2 && succ_addr b = Some 1 then 1 else 0
  in
  let batch_mean = float_of_int !effects /. float_of_int !events in
  Printf.printf "  step: %.0f events/s (single-node forward)\n" steps_per_sec;
  Printf.printf
    "  loopback: %d events -> %d effects (%.2f effects/event), %d delivers, \
     ring %s\n\n"
    !events !effects batch_mean !delivers
    (if ring_formed = 1 then "formed" else "NOT formed");
  [
    ( "engine",
      Json.Obj
        [
          ("events_per_sec", Json.Float steps_per_sec);
          ("loopback_events", Json.Int !events);
          ("loopback_effects", Json.Int !effects);
          ("loopback_delivers", Json.Int !delivers);
          ("effect_batch_mean", Json.Float batch_mean);
          ("ring_formed", Json.Int ring_formed);
        ] );
  ]

(* --- scrape: telemetry-plane overhead ---

   What a Stats_request costs the daemon (registry snapshot + reply
   built inside [Engine.step]) and what the resulting Stats_response
   frame costs the collector to decode.  The engine is driven by a
   fixed virtual schedule, so the captured response — its wire size,
   sample count, drained-event count and round-trip decode errors — is
   a pure function of the seeds and is pinned by Eval.Gate; the ns/op
   numbers are wall-clock and unguarded. *)

let section_scrape () =
  print_endline "=== scrape: telemetry plane ===";
  let metrics = Obs.Metrics.create () in
  let tracer = Obs.Trace.create () in
  let e = I3.Engine.create ~seed:21 ~addr:1 ~metrics ~tracer ~site:1 () in
  (* Populate the registry the way a live daemon would: resident
     triggers, matched data packets (which also feed the trace ring —
     the ids are non-zero), and the introspection gauges refreshed by
     each step. *)
  let sid i = Id.name_hash (Printf.sprintf "bench-scrape-%d" (i mod 16)) in
  for i = 0 to 15 do
    ignore
      (I3.Engine.step e ~now:(float_of_int i)
         (I3.Engine.Insert_trigger (I3.Trigger.to_host ~id:(sid i) ~owner:0xf00d)))
  done;
  for i = 0 to 255 do
    let pkt =
      I3.Packet.make ~stack:[ I3.Packet.Sid (sid i) ]
        ~payload:(String.make 32 'y') ~trace:(100 + i) ()
    in
    ignore (I3.Engine.step e ~now:(20. +. float_of_int i) (I3.Engine.Send_packet pkt))
  done;
  let ask ~nonce ~drain =
    let frame =
      I3.Engine.I3 (I3.Message.Stats_request { nonce; prefix = ""; drain })
    in
    List.find_map
      (function
        | I3.Engine.Send (_, (I3.Message.Stats_response _ as m)) -> Some m
        | _ -> None)
      (I3.Engine.step e ~now:1_000. (I3.Engine.Frame { src = 0xc0; frame }))
  in
  (* Capture the pinned response with a drain (the ring empties into it
     exactly once); the rate loop then scrapes without draining so every
     iteration does the same work. *)
  let response =
    match ask ~nonce:43 ~drain:true with
    | Some m -> m
    | None -> failwith "bench: engine did not answer Stats_request"
  in
  let n_samples, n_events =
    match response with
    | I3.Message.Stats_response { samples; events; _ } ->
        (List.length samples, List.length events)
    | _ -> assert false
  in
  let frame = I3.Codec.encode response in
  let decode_errors = if Result.is_ok (I3.Codec.decode frame) then 0 else 1 in
  let iters = if smoke then 5_000 else 50_000 in
  let step_rate =
    rate_per_sec (fun () -> ignore (ask ~nonce:44 ~drain:false)) iters
  in
  let encode_rate =
    rate_per_sec (fun () -> ignore (I3.Codec.encode response)) iters
  in
  let decode_rate =
    rate_per_sec (fun () -> ignore (I3.Codec.decode frame)) iters
  in
  let ns rate = if Float.is_nan rate then nan else 1e9 /. rate in
  Printf.printf "  response: %d B (%d samples, %d drained events)\n"
    (String.length frame) n_samples n_events;
  Printf.printf
    "  engine answer: %.0f ns/op   encode: %.0f ns/op   decode: %.0f ns/op   \
     decode errors: %d\n\n"
    (ns step_rate) (ns encode_rate) (ns decode_rate) decode_errors;
  [
    ( "scrape",
      Json.Obj
        [
          ("response_bytes", Json.Int (String.length frame));
          ("samples", Json.Int n_samples);
          ("drained_events", Json.Int n_events);
          ("wire_decode_errors", Json.Int decode_errors);
          ("answer_ns_per_op", Json.Float (ns step_rate));
          ("encode_ns_per_op", Json.Float (ns encode_rate));
          ("decode_ns_per_op", Json.Float (ns decode_rate));
        ] );
  ]

(* --- substrate bakeoff: Chord variants vs Koorde over one ring ---

   The gated [substrate] section: per-substrate hop/stretch/state
   numbers from one seeded race (Eval.Bakeoff).  Smoke scales the ring
   down, which flips the hops verdict (Koorde-8 only out-hops Chord
   around n = 10^4 — see bin/i3_sim bakeoff for the full-scale run);
   the state relation holds at every scale and is what Gate's
   default_relations pin. *)

let section_substrate () =
  print_endline "=== substrate bakeoff: chord variants vs koorde ===";
  let base = Eval.Bakeoff.default_params Topology.Model.Transit_stub in
  let p =
    if smoke then
      {
        base with
        Eval.Bakeoff.topo_nodes = 600;
        n_servers = 4096;
        queries = 120;
        state_samples = 128;
      }
    else
      { base with Eval.Bakeoff.topo_nodes = 1200; n_servers = 10_000; queries = 300 }
  in
  let pts = Eval.Bakeoff.run ~progress:(Printf.printf "  %s\n%!") p in
  [ ("substrate", Eval.Bakeoff.to_json p pts) ]

let () =
  let mode = if smoke then "smoke" else "reduced" in
  Printf.printf "i3 reproduction benchmarks (%s scale)\n\n" mode;
  let obs = section_observability () in
  let tt = section_trigger_table () in
  let ctl = section_control_plane () in
  let codec = section_codec () in
  let eng = section_engine () in
  let scrape = section_scrape () in
  let sub = section_substrate () in
  Json.to_file ~path:bench_out
    (Json.Obj
       ([
          ("schema", Json.String "i3-bench/2");
          ("mode", Json.String mode);
          ("generated_at_unix", Json.Float (Unix.gettimeofday ()));
        ]
       @ obs @ tt @ ctl @ codec @ eng @ scrape @ sub));
  Printf.printf "  wrote %s\n" bench_out
