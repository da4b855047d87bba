(* i3cluster: launch, supervise and chaos-test a cluster of real
   [bin/i3d] daemons over loopback UDP — the one-command version of the
   live chaos matrix (ROADMAP item 5).

   The run is a complete scenario, not just a launcher: N supervised
   daemons form a static ring; a host-side [Transport.Client] (with a
   seeded [Transport.Faulty] decorator injecting the default fault
   intensity at its send boundary) registers triggers and keeps them
   refreshed; a probe flow measures delivery; an [Obs.Health] monitor
   judges SLO rules on the wall clock; and a kill/restart schedule is
   executed against the daemon owning the probed identifier.  A
   [Harness.Telemetry] collector polls every daemon with Stats_request
   frames throughout, so a second monitor judges per-daemon rules
   against *wire-scraped* series (not exit dumps) and drained trace
   rings are assembled into cross-process hop trees.  On exit the run
   asserts the same invariants the simulator's chaos matrix pins —
   triggers conserved via client refresh, delivery restored after
   failover, zero wire decode errors (post-mortem AND live-scraped),
   zero client give-ups — writes the scraped series and assembled
   traces as artifacts next to the logs, and exits non-zero when any
   invariant fails, so CI can run it as a smoke job.

   Usage:
     i3cluster --n 5 --duration-ms 12000 --seed 7
     i3cluster --n 3 --schedule "2000:crash;5000:restart" --json
     i3cluster top --n 3 --duration-ms 10000       # live telemetry table
     i3cluster top --targets 127.0.0.1:4001,127.0.0.1:4002

   Schedule DSL (semicolon-separated "OFFSET_MS:EVENT[:ARG]"):
     crash[:i] restart[:i] loss:P dup:P jitter:MS spike:MS heal
   Omitted crash/restart victims default to the probed id's owner. *)

let usage =
  "i3cluster --n N [--i3d PATH] [--seed S] [--duration-ms MS] [--triggers K]\n\
  \          [--loss P] [--jitter MS] [--daemon-loss P] [--daemon-fault-seed N]\n\
  \          [--schedule SPEC] [--dir DIR] [--json] [--no-faults] [-v]\n\
   i3cluster top [--targets HOST:PORT,...] [--n N] [--interval-ms MS]\n\
  \          [--refresh-ms MS] [--duration-ms MS]"

let n = ref 5
let i3d = ref ""
let seed = ref 7
let duration_ms = ref 12_000.
let ntriggers = ref 3
let loss = ref 0.1
let jitter = ref 2.
let daemon_loss = ref 0.
let daemon_fault_seed = ref 0
let schedule_spec = ref ""
let out_dir = ref ""
let json_out = ref false
let no_faults = ref false
let verbose = ref false
let targets = ref ""
let scrape_interval_ms = ref 500.
let refresh_ms = ref 1_000.
let top_mode = ref false

let args =
  [
    ("--n", Arg.Set_int n, "cluster size (default 5)");
    ("--i3d", Arg.Set_string i3d, "path to the i3d binary (default: sibling)");
    ("--seed", Arg.Set_int seed, "rng seed for ids, faults, backoff jitter");
    ( "--duration-ms",
      Arg.Float (fun f -> duration_ms := f),
      "scenario length in wall ms (default 12000)" );
    ("--triggers", Arg.Set_int ntriggers, "triggers to register (default 3)");
    ("--loss", Arg.Float (fun f -> loss := f), "injected send loss (default 0.1)");
    ( "--jitter",
      Arg.Float (fun f -> jitter := f),
      "injected send jitter in ms (default 2)" );
    ( "--daemon-loss",
      Arg.Float (fun f -> daemon_loss := f),
      "forward i3d --loss: each daemon drops this fraction of its OWN \
       sends (server->server weather, not just the client edge; default \
       0: off)" );
    ( "--daemon-fault-seed",
      Arg.Set_int daemon_fault_seed,
      "base seed for the daemons' --fault-seed (member i gets base+i; \
       default: --seed)" );
    ( "--schedule",
      Arg.Set_string schedule_spec,
      "fault schedule: \"OFF:EVT[:ARG];...\" (default: seeded kill/restart)" );
    ("--dir", Arg.Set_string out_dir, "logs/dumps directory (default: temp)");
    ("--json", Arg.Set json_out, "machine-readable verdict on stdout");
    ("--no-faults", Arg.Set no_faults, "disable send-boundary fault injection");
    ( "--targets",
      Arg.Set_string targets,
      "top: scrape these daemons instead of spawning a cluster \
       (HOST:PORT,...)" );
    ( "--interval-ms",
      Arg.Float (fun f -> scrape_interval_ms := f),
      "top: scrape interval (default 500)" );
    ( "--refresh-ms",
      Arg.Float (fun f -> refresh_ms := f),
      "top: table refresh period (default 1000)" );
    ("-v", Arg.Set verbose, "log supervision events to stderr");
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

(* Daemon-side faults ride in the spawn argv, so they are cluster
   config, not schedule events. *)
let cluster_config () =
  {
    Harness.Cluster.default_config with
    Harness.Cluster.daemon_loss = !daemon_loss;
    daemon_fault_seed =
      (if !daemon_fault_seed <> 0 then !daemon_fault_seed else !seed);
  }

let default_i3d () =
  Filename.concat (Filename.dirname Sys.executable_name) "i3d.exe"

let addr_of_name name =
  match String.index_opt name ':' with
  | None -> die "bad target %S (want host:port)" name
  | Some i -> (
      let h = String.sub name 0 i in
      let p = String.sub name (i + 1) (String.length name - i - 1) in
      match (Transport.Udp.ip_of_string h, int_of_string_opt p) with
      | Some ip, Some port when port > 0 && port < 0x10000 ->
          Transport.Udp.pack ~ip ~port
      | _ -> die "bad target %S (want ipv4:port)" name)

let parse_schedule ~owner spec : Faults.schedule =
  let event_of = function
    | [ "crash" ] -> Faults.Crash owner
    | [ "crash"; i ] -> Faults.Crash (int_of_string i)
    | [ "restart" ] -> Faults.Restart owner
    | [ "restart"; i ] -> Faults.Restart (int_of_string i)
    | [ "loss"; p ] -> Faults.Loss (float_of_string p)
    | [ "dup"; p ] -> Faults.Duplicate (float_of_string p)
    | [ "jitter"; ms ] -> Faults.Jitter (float_of_string ms)
    | [ "spike"; ms ] -> Faults.Latency_spike (float_of_string ms)
    | [ "heal" ] -> Faults.Heal
    | parts -> die "bad schedule event %S" (String.concat ":" parts)
  in
  List.filter_map
    (fun item ->
      match String.trim item with
      | "" -> None
      | item -> (
          match String.split_on_char ':' item with
          | at :: rest -> Some (float_of_string at, event_of rest)
          | [] -> None))
    (String.split_on_char ';' spec)

(* --- the live telemetry table ("i3cluster top") --- *)

(* Every daemon registers its engine metrics as instance="srv1" (a
   per-process counter), so the scraped store tells their series apart
   only by the ("target", host:port) tag the collector adds.  Look
   series up by name + target (+ any extra label pins) rather than by
   the full label set. *)
let find_series store ?(extra = []) ~target name =
  List.find_opt
    (fun s ->
      Obs.Series.name s = name
      &&
      let ls = Obs.Series.labels s in
      List.assoc_opt "target" ls = Some target
      && List.for_all (fun (k, v) -> List.assoc_opt k ls = Some v) extra)
    (Obs.Series.all store)

let latest_of store ?extra ~target name =
  Option.bind (find_series store ?extra ~target name) (fun s ->
      Option.map (fun p -> p.Obs.Series.value) (Obs.Series.latest s))

let rate_of store ?extra ~target ~now name =
  Option.bind (find_series store ?extra ~target name) (fun s ->
      Obs.Series.rate_per_sec s ~now ~window_ms:5_000.)

let fmt_f = function None -> "-" | Some v -> Printf.sprintf "%.1f" v
let fmt_i = function None -> "-" | Some v -> Printf.sprintf "%.0f" v

let render_top tel ~names ~now =
  let scr = Harness.Telemetry.scrape tel in
  let store = Harness.Telemetry.store tel in
  let header =
    [
      "instance"; "seen"; "rx/s"; "tx/s"; "trig"; "rpcs"; "wheel";
      "step_p99"; "dec_err";
    ]
  in
  let rows =
    List.map
      (fun name ->
        let seen =
          match Obs.Scrape.last_seen scr name with
          | None -> "-"
          | Some at -> Printf.sprintf "%.1fs" ((now -. at) /. 1000.)
        in
        [
          name;
          seen;
          fmt_f (rate_of store ~target:name ~now "driver.frames");
          fmt_f (rate_of store ~target:name ~now "driver.sends");
          fmt_i (latest_of store ~target:name "engine.triggers");
          fmt_i (latest_of store ~target:name "engine.pending_rpcs");
          fmt_i (latest_of store ~target:name "engine.wheel_depth");
          fmt_f
            (latest_of store
               ~extra:[ ("event", "frame") ]
               ~target:name "driver.step_ms.p99");
          fmt_i
            (latest_of store
               ~extra:[ ("proto", "frame") ]
               ~target:name "wire.decode_errors");
        ])
      names
  in
  let trees = Harness.Telemetry.assemble tel in
  let spanning =
    List.filter (fun t -> List.length t.Obs.Trace.a_sites >= 2) trees
  in
  Printf.printf
    "\n== i3cluster top  t=%.1fs  polls=%d responses=%d timeouts=%d  \
     traces=%d (%d cross-process)\n"
    (now /. 1000.) (Obs.Scrape.polls scr) (Obs.Scrape.responses scr)
    (Obs.Scrape.timeouts scr) (List.length trees) (List.length spanning);
  Obs.Sink.aligned_table (header :: rows);
  flush stdout

let running = ref true

let run_top () =
  let stop _ = running := false in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  let cluster, target_list =
    if !targets <> "" then
      ( None,
        String.split_on_char ',' !targets
        |> List.filter (fun s -> String.trim s <> "")
        |> List.map (fun name ->
               let name = String.trim name in
               { Obs.Scrape.addr = addr_of_name name; instance = name }) )
    else begin
      let i3d = if !i3d = "" then default_i3d () else !i3d in
      if not (Sys.file_exists i3d) then die "i3d binary not found at %s" i3d;
      let cluster =
        Harness.Cluster.create ~config:(cluster_config ())
          ?dir:(if !out_dir = "" then None else Some !out_dir)
          ~rng:(Rng.of_int !seed) ~i3d ~n:!n ()
      in
      if !verbose then
        Harness.Cluster.on_event cluster (fun s ->
            Printf.eprintf "[cluster] %s\n%!" s);
      if not (Harness.Cluster.start cluster) then begin
        Harness.Cluster.stop cluster;
        die "cluster failed to become ready (no loopback UDP?)"
      end;
      ignore (Harness.Cluster.await_converged cluster ~timeout_ms:15_000.);
      ( Some cluster,
        List.map
          (fun (m : Harness.Cluster.member) ->
            { Obs.Scrape.addr = m.addr; instance = m.name })
          (Harness.Cluster.members cluster) )
    end
  in
  if target_list = [] then die "top: no targets (use --targets or --n)";
  let tel =
    Harness.Telemetry.create ~interval_ms:!scrape_interval_ms target_list
  in
  let names = List.map (fun t -> t.Obs.Scrape.instance) target_list in
  let started = Unix.gettimeofday () *. 1000. in
  let next_render = ref 0. in
  while
    !running
    && (Unix.gettimeofday () *. 1000.) -. started < !duration_ms
  do
    let now = (Unix.gettimeofday () *. 1000.) -. started in
    Harness.Telemetry.tick tel ~now_ms:now;
    (match cluster with Some c -> Harness.Cluster.supervise c | None -> ());
    if now >= !next_render then begin
      render_top tel ~names ~now;
      next_render := now +. !refresh_ms
    end;
    match Unix.select [] [] [] 0.02 with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  render_top tel ~names ~now:((Unix.gettimeofday () *. 1000.) -. started);
  Harness.Telemetry.close tel;
  (match cluster with Some c -> Harness.Cluster.stop c | None -> ());
  exit 0

(* --- the chaos scenario --- *)

let run_chaos () =
  if !n < 1 then die "%s" usage;
  let i3d = if !i3d = "" then default_i3d () else !i3d in
  if not (Sys.file_exists i3d) then die "i3d binary not found at %s" i3d;
  let rng = Rng.of_int !seed in
  let metrics = Obs.Metrics.default in

  (* The fleet. *)
  let cluster =
    Harness.Cluster.create ~metrics ~config:(cluster_config ())
      ?dir:(if !out_dir = "" then None else Some !out_dir)
      ~rng:(Rng.split rng) ~i3d ~n:!n ()
  in
  if !verbose then
    Harness.Cluster.on_event cluster (fun s -> Printf.eprintf "[cluster] %s\n%!" s);
  Printf.eprintf "i3cluster: %d daemons, dir %s\n%!" !n
    (Harness.Cluster.dir cluster);
  if not (Harness.Cluster.start cluster) then begin
    Harness.Cluster.stop cluster;
    die "cluster failed to become ready (no loopback UDP?)"
  end;
  (* The ring forms dynamically; id ownership (and so the default
     schedule's victim) is only meaningful once it has converged. *)
  if not (Harness.Cluster.await_converged cluster ~timeout_ms:15_000.) then begin
    Harness.Cluster.stop cluster;
    die "ring did not converge within 15s"
  end;
  Printf.eprintf "i3cluster: ring converged\n%!";

  (* The telemetry plane: scrape every daemon over the wire throughout
     the run; a dedicated monitor judges per-daemon rules against the
     scraped series — no exit dumps involved — and dumps a flight
     record on each entry into Violated. *)
  let tel = Harness.Telemetry.of_cluster ~interval_ms:400. cluster in
  let wire_rules =
    List.map
      (fun (m : Harness.Cluster.member) ->
        {
          Obs.Health.rule = "decode-errors/" ^ m.name;
          signal =
            Obs.Health.Latest
              {
                metric = "wire.decode_errors";
                labels =
                  [
                    ("instance", m.name);
                    ("proto", "frame");
                    ("target", m.name);
                  ];
              };
          bound = Obs.Health.At_most { ok = 0.; degraded = 0. };
        })
      (Harness.Cluster.members cluster)
  in
  let wire_mon = Harness.Telemetry.monitor ~rules:wire_rules tel in
  Harness.Telemetry.flight_recorder tel
    ~path:(Filename.concat (Harness.Cluster.dir cluster) "flight-records.json");

  (* The end-host: client + fault decorator + live checkers. *)
  let udp =
    try Transport.Udp.create ()
    with Unix.Unix_error (e, _, _) ->
      Harness.Cluster.stop cluster;
      die "cannot bind client socket: %s" (Unix.error_message e)
  in
  let faulty =
    if !no_faults then None
    else begin
      let f =
        Transport.Faulty.of_udp ~metrics ~rng:(Rng.split rng) udp
      in
      (try
         Transport.Faulty.apply f (Faults.Loss !loss);
         Transport.Faulty.apply f (Faults.Jitter !jitter)
       with Invalid_argument msg ->
         Harness.Cluster.stop cluster;
         die "%s" msg);
      Some f
    end
  in
  let client =
    Transport.Client.create ~metrics
      ~config:
        {
          Transport.Client.default_config with
          refresh_period_ms = 1_500.;
        }
      ?faulty ~rng:(Rng.split rng)
      ~gateways:[ List.hd (Harness.Cluster.addrs cluster) ]
      udp
  in
  let live = Harness.Live.attach ~metrics client in

  (* Triggers: the probed one first, owned by a daemon that is NOT the
     gateway, so the kill hits an inter-server path. *)
  let rec probed_id () =
    let id = Id.random rng in
    if Harness.Cluster.owner_index cluster id <> 0 then id else probed_id ()
  in
  let probe_id = probed_id () in
  let owner = Harness.Cluster.owner_index cluster probe_id in
  let me = Transport.Host.addr (Transport.Client.host client) in
  let triggers =
    I3.Trigger.to_host ~id:probe_id ~owner:me
    :: List.init (max 0 (!ntriggers - 1)) (fun _ ->
           I3.Trigger.to_host ~id:(Id.random rng) ~owner:me)
  in
  let inserted =
    List.for_all (fun tr -> Transport.Client.insert client tr = `Acked) triggers
  in
  if not inserted then begin
    Harness.Cluster.stop cluster;
    die "initial trigger registration failed"
  end;

  let flow = Harness.Live.start_flow live ~name:"probe" probe_id in
  let mon =
    Harness.Live.monitor ~rules:(Harness.Live.default_rules flow) live
  in

  (* The schedule: explicit DSL, or the default seeded kill/restart of
     the probed id's owner at 25% / 40% of the run. *)
  let schedule =
    if !schedule_spec <> "" then parse_schedule ~owner !schedule_spec
    else
      [
        (!duration_ms *. 0.25, Faults.Crash owner);
        (!duration_ms *. 0.4, Faults.Restart owner);
      ]
  in
  let fault_at = ref None in
  let started = Unix.gettimeofday () *. 1000. in
  List.iter
    (fun (at, e) ->
      match e with
      | Faults.Crash _ when !fault_at = None -> fault_at := Some (started +. at)
      | _ -> ())
    schedule;
  Printf.eprintf "i3cluster: owner of probed id is daemon %d; schedule: %s\n%!"
    owner
    (String.concat ", "
       (List.map
          (fun (at, e) ->
            Format.asprintf "%.0fms %a" at Faults.pp_event e)
          schedule));

  Harness.Cluster.run_schedule ?faulty
    ~tick:(fun ~now_ms ->
      ignore (Transport.Client.wait client ~timeout:0.005);
      Transport.Client.poll client ~now:now_ms;
      Harness.Live.flow_tick live flow ~now_ms;
      Harness.Live.monitor_tick mon ~now_ms;
      Harness.Telemetry.tick tel ~now_ms)
    cluster schedule ~duration_ms:!duration_ms;
  Harness.Live.stop_flow flow;

  (* Invariants, then the post-mortem over the daemons' dumps. *)
  let conserved = Harness.Live.triggers_conserved live in
  Harness.Cluster.stop cluster;
  (* Telemetry artifacts: what the collector saw over the wire. *)
  let dir = Harness.Cluster.dir cluster in
  let scraped_store = Harness.Telemetry.store tel in
  Json.lines_to_file
    ~path:(Filename.concat dir "scraped-series.json")
    (List.map
       (Obs.Sink.series_to_json ~tail:128)
       (Obs.Series.all scraped_store));
  let trees = Harness.Telemetry.assemble tel in
  Json.lines_to_file
    ~path:(Filename.concat dir "assembled-traces.json")
    (List.map Obs.Sink.tree_to_json trees);
  let scr = Harness.Telemetry.scrape tel in
  let scrape_polls = Obs.Scrape.polls scr in
  let scrape_responses = Obs.Scrape.responses scr in
  let scrape_timeouts = Obs.Scrape.timeouts scr in
  let w_ok, w_deg, w_vio = Obs.Health.counts wire_mon in
  let max_trace_sites =
    List.fold_left
      (fun acc t -> max acc (List.length t.Obs.Trace.a_sites))
      0 trees
  in
  Harness.Telemetry.close tel;
  let counter name =
    match
      Obs.Metrics.find metrics ~labels:[ ("instance", "client") ] name
    with
    | Some (Obs.Metrics.Counter c) -> c
    | _ -> 0
  in
  let client_decode_errors =
    match
      Obs.Metrics.find metrics
        ~labels:[ ("instance", "client"); ("proto", "i3") ]
        "wire.decode_errors"
    with
    | Some (Obs.Metrics.Counter c) -> c
    | _ -> 0
  in
  let daemon_decode_errors = Harness.Cluster.decode_errors cluster in
  let gave_up = counter "client.gave_up" in
  let ratio = Harness.Live.delivery_ratio flow in
  let ttr =
    Option.bind !fault_at (fun at -> Harness.Live.time_to_recovery flow ~after:at)
  in
  let detect =
    Option.bind !fault_at (fun at -> Harness.Live.time_to_detect mon ~fault_at:at)
  in
  let mon_ttr =
    Option.bind !fault_at (fun at ->
        Harness.Live.time_to_recover mon ~fault_at:at)
  in
  let recovered = !fault_at = None || ttr <> None in
  let ok =
    conserved && recovered && gave_up = 0 && daemon_decode_errors = 0
    && client_decode_errors = 0 && w_vio = 0
  in
  let fmt_opt = function None -> "-" | Some v -> Printf.sprintf "%.0f" v in
  if !json_out then
    let j =
      Json.Obj
        [
          ("ok", Json.Bool ok);
          ("daemons", Json.Int !n);
          ("conserved", Json.Bool conserved);
          ("recovered", Json.Bool recovered);
          ("delivery_ratio", Json.Float ratio);
          ( "time_to_recovery_ms",
            match ttr with Some v -> Json.Float v | None -> Json.Null );
          ( "monitor_detect_ms",
            match detect with Some v -> Json.Float v | None -> Json.Null );
          ( "monitor_ttr_ms",
            match mon_ttr with Some v -> Json.Float v | None -> Json.Null );
          ("sent", Json.Int (Harness.Live.sent flow));
          ("received", Json.Int (Harness.Live.received flow));
          ("retries", Json.Int (counter "client.retries"));
          ("timeouts", Json.Int (counter "client.timeouts"));
          ("gave_up", Json.Int gave_up);
          ("refreshes", Json.Int (counter "client.refreshes"));
          ("decode_errors_daemons", Json.Int daemon_decode_errors);
          ("decode_errors_client", Json.Int client_decode_errors);
          ("longest_outage_ms", Json.Float (Harness.Live.longest_outage flow));
          ("scrape_polls", Json.Int scrape_polls);
          ("scrape_responses", Json.Int scrape_responses);
          ("scrape_timeouts", Json.Int scrape_timeouts);
          ("wire_verdicts_ok", Json.Int w_ok);
          ("wire_verdicts_degraded", Json.Int w_deg);
          ("wire_verdicts_violated", Json.Int w_vio);
          ("assembled_traces", Json.Int (List.length trees));
          ("max_trace_sites", Json.Int max_trace_sites);
          ("dir", Json.String (Harness.Cluster.dir cluster));
        ]
    in
    print_endline (Json.to_string j)
  else begin
    Printf.printf "scenario : %d daemons, kill/restart daemon %d, %s faults\n"
      !n owner
      (if !no_faults then "no injected"
       else Printf.sprintf "loss=%.2f jitter=%.0fms" !loss !jitter);
    Printf.printf "delivery : %d/%d (ratio %.3f), longest outage %.0f ms\n"
      (Harness.Live.received flow)
      (Harness.Live.sent flow)
      ratio
      (Harness.Live.longest_outage flow);
    Printf.printf "recovery : ttr=%s ms, monitor detect=%s ms, monitor ttr=%s ms\n"
      (fmt_opt ttr) (fmt_opt detect) (fmt_opt mon_ttr);
    Printf.printf "client   : retries=%d timeouts=%d gave_up=%d refreshes=%d\n"
      (counter "client.retries") (counter "client.timeouts") gave_up
      (counter "client.refreshes");
    Printf.printf "wire     : decode_errors daemons=%d client=%d\n"
      daemon_decode_errors client_decode_errors;
    Printf.printf
      "telemetry: scrapes %d/%d (%d timeouts), wire verdicts \
       ok=%d degraded=%d violated=%d\n"
      scrape_responses scrape_polls scrape_timeouts w_ok w_deg w_vio;
    Printf.printf "traces   : %d assembled, widest spans %d daemons\n"
      (List.length trees) max_trace_sites;
    Printf.printf "invariants: conserved=%b recovered=%b -> %s\n" conserved
      recovered
      (if ok then "OK" else "FAILED");
    Printf.printf "artifacts : %s\n" (Harness.Cluster.dir cluster)
  end;
  exit (if ok then 0 else 1)

let () =
  Arg.parse args
    (fun a ->
      if a = "top" then top_mode := true
      else raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !top_mode then run_top () else run_chaos ()
