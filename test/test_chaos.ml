(* Chaos scenario matrix: declarative fault schedules (Faults) injected
   into full decentralized deployments (Transport.Dynamic), with recovery
   checked through machine-checked invariants (Eval.Recovery) — the
   paper's robustness story (Secs. IV-C, V-C) exercised end to end:
   partitions heal, killed gateways rotate away, burst loss only delays
   convergence, gray links are routed around, and soft state repairs
   every trigger within [refresh_period + ack_grace].

   Every scenario is seed-deterministic: the same seed replays the same
   trajectory, which is what turns a chaos run into a regression test.
   The matrix runs the core scenarios under three distinct seeds. *)

(* Aggressive host timers so recovery bounds are small in virtual time:
   2 s refresh, 4 s cache TTL, re-home after 5 s of unacked refreshes. *)
let chaos_host_config =
  {
    I3.Host.refresh_period_ms = 2_000.;
    cache_ttl_ms = 4_000.;
    ack_grace_ms = 5_000.;
  }

let repair_bound =
  chaos_host_config.I3.Host.refresh_period_ms
  +. chaos_host_config.I3.Host.ack_grace_ms

(* Ten servers at ten distinct sites, so site-set partitions and gray
   links cut between servers (join order = site index).  Each deployment
   gets a private registry (dune runtest isolation: parallel scenarios
   must never share Obs.Metrics.default) and an operations collector, so
   the monitor's flight dumps have control-plane history to capture. *)
let build ?server_config ~seed () =
  let tracer = Obs.Trace.create ~capacity:(1 lsl 17) () in
  let metrics = Obs.Metrics.create () in
  let spans = Obs.Trace.create ~capacity:(1 lsl 15) () in
  let d =
    Transport.Dynamic.create ~seed ?server_config ~metrics ~tracer ~spans ()
  in
  for site = 0 to 9 do
    ignore (Transport.Dynamic.add_server d ~site ());
    Transport.Dynamic.run_for d 2_000.
  done;
  Transport.Dynamic.run_for d 60_000.;
  d

let probe_rng seed = Rng.create (Int64.of_int ((seed * 7919) + 13))

let collect host =
  let log = ref [] in
  I3.Host.on_receive host (fun ~stack:_ ~payload -> log := payload :: !log);
  fun () -> List.rev !log

(* A rendezvous pair with a kept-refreshed trigger, a running probe flow,
   and a health monitor watching that flow and the control ring — the
   measurement substrate of every scenario.  The monitor reads only the
   registry, never the simulator's ground truth, so its detect/recover
   times can be compared against Eval.Recovery's oracle. *)
let start_probes d =
  let recv = Transport.Dynamic.new_host d ~config:chaos_host_config () in
  let send = Transport.Dynamic.new_host d ~config:chaos_host_config () in
  let id = I3.Host.new_private_id recv in
  I3.Host.insert_trigger recv id;
  Transport.Dynamic.run_for d 3_000.;
  let flow = Eval.Recovery.start_flow d ~sender:send ~receiver:recv id in
  let monitor =
    Eval.Monitor.create
      ~rules:
        (Eval.Monitor.default_rules ~ring_label:(Transport.Dynamic.ring_label d)
           flow)
      d
  in
  Transport.Dynamic.run_for d 5_000.;
  (recv, send, id, flow, monitor)

(* Trace conservation: every traced packet's life must end in exactly one
   Deliver or one Drop with a cause — a fault may delay or kill a packet,
   but nothing may vanish from the books.  Checked after a drain so no
   trace is legitimately still in flight. *)
let assert_traces_conserved ~what d =
  Transport.Dynamic.run_for d 5_000.;
  let tracer = Transport.Dynamic.tracer d in
  Alcotest.(check bool) (what ^ ": packets were traced") true
    (Obs.Trace.started tracer > 0);
  Alcotest.(check (list int)) (what ^ ": no orphaned traces") []
    (List.map (fun s -> s.Obs.Trace.s_trace) (Obs.Trace.orphans tracer));
  List.iter
    (fun s ->
      if s.Obs.Trace.sends > 0 then
        Alcotest.(check int)
          (Printf.sprintf "%s: trace %d terminates exactly once" what
             s.Obs.Trace.s_trace)
          1
          (s.Obs.Trace.delivers + s.Obs.Trace.drops))
    (Obs.Trace.summaries tracer)

(* Chaos-matrix-under-codec: every hop of a scenario is wire bytes, encoded
   by a member's driver or a host and decoded by the receiver.  By
   scenario end the members' drivers have taken plenty of frames, and
   not one datagram failed to decode at any driver or host. *)
let assert_wire_clean ~what d =
  let sum name =
    List.fold_left
      (fun acc (s : Obs.Metrics.sample) ->
        match s.value with
        | Obs.Metrics.Counter n when s.name = name -> acc + n
        | _ -> acc)
      0
      (Obs.Metrics.snapshot ~prefix:name (Transport.Dynamic.metrics d))
  in
  Alcotest.(check bool)
    (what ^ ": driver frames decoded") true
    (sum "driver.frames" > 0);
  Alcotest.(check int) (what ^ ": wire.decode_errors = 0") 0
    (sum "wire.decode_errors")

let check_recovered ~what ~seed d recv flow monitor ~fault_at =
  let rng = probe_rng (seed + 1) in
  let conv = Eval.Recovery.converges_within ~budget:120_000. rng d in
  Alcotest.(check bool) (what ^ ": ring re-converged") true (conv <> None);
  (* The paper's repair bound: after one refresh round plus the ack grace
     period, every trigger the host keeps alive is stored again at the
     (now unique) responsible server. *)
  Transport.Dynamic.run_for d repair_bound;
  Alcotest.(check bool)
    (what ^ ": triggers conserved") true
    (Eval.Recovery.triggers_conserved d [ recv ]);
  Transport.Dynamic.run_for d 3_000.;
  (* Monitor vs oracle — the bounded observability gap.  Detection may
     lag the fault only by propagation plus a rule window plus a scrape
     period; and by the moment the oracle has just proven recovery (ring
     re-converged, triggers conserved, drain elapsed), the monitor's own
     history must already contain an Ok verdict after its first breach,
     i.e. monitor-recovery never trails the ground-truth proof point. *)
  let detect = Eval.Monitor.time_to_detect monitor ~fault_at in
  let mon_ttr = Eval.Monitor.time_to_recover monitor ~fault_at in
  Alcotest.(check bool)
    (what ^ ": monitor detected the fault") true (detect <> None);
  (match detect with
  | Some t ->
      Alcotest.(check bool)
        (what ^ ": detection lag bounded") true
        (t >= 0. && t <= 15_000.)
  | None -> ());
  Alcotest.(check bool)
    (what ^ ": monitor verdict recovered by the oracle's proof point") true
    (mon_ttr <> None);
  (match (detect, mon_ttr) with
  | Some t, Some r ->
      Alcotest.(check bool)
        (what ^ ": recovery verdict follows detection") true (r >= t)
  | _ -> ());
  Eval.Monitor.stop monitor;
  Eval.Recovery.stop_flow flow;
  Alcotest.(check bool)
    (what ^ ": flow recovered after fault") true
    (Eval.Recovery.time_to_recovery flow ~after:fault_at <> None);
  assert_traces_conserved ~what d;
  assert_wire_clean ~what d;
  Eval.Recovery.metrics
    ~scenario:(Printf.sprintf "%s (seed %d)" what seed)
    ~fault_at ?detect_ms:detect ?monitor_ttr_ms:mon_ttr
    ~converged:(conv <> None) flow

(* --- scenario: partition the ring in half, then heal --- *)

let scenario_partition ~seed () =
  let d = build ~seed () in
  Alcotest.(check bool) "initial convergence" true
    (Eval.Recovery.ring_converged (probe_rng seed) d);
  let recv, _send, _id, flow, monitor = start_probes d in
  let fault_at = Transport.Dynamic.now d in
  Transport.Dynamic.inject d
    [ (0., Faults.Partition [ 0; 1; 2; 3; 4 ]); (20_000., Faults.Heal) ];
  Transport.Dynamic.run_for d 15_000.;
  (* Mid-partition each half has converged to its own sub-ring, so probed
     identifiers have a claimant on both sides: the single-owner
     invariant is violated until the heal. *)
  Alcotest.(check bool) "split into two sub-rings" false
    (Eval.Recovery.ring_converged (probe_rng seed) d);
  Transport.Dynamic.run_for d 10_000.;
  let m =
    check_recovered ~what:"partition+heal" ~seed d recv flow monitor ~fault_at
  in
  Alcotest.(check bool) "partition drops counted as such" true
    ((Transport.Dynamic.net_stats d).Net.dropped_partition > 0);
  m

(* --- scenario: kill the trigger's responsible server mid-refresh --- *)

let scenario_kill_owner ~seed () =
  let d = build ~seed () in
  let recv, _send, id, flow, monitor = start_probes d in
  let victim =
    match Transport.Dynamic.owners_of d id with
    | [ o ] -> o
    | l -> Alcotest.fail (Printf.sprintf "%d owners before kill" (List.length l))
  in
  let fault_at = Transport.Dynamic.now d in
  Transport.Dynamic.kill_server d victim;
  (* The receiver's refreshes go unacked until the ring heals around the
     dead server and a refresh lands at the new owner — the killed
     server's triggers must be deliverable again within the paper's
     [refresh_period + ack_grace] repair bound of the heal. *)
  Transport.Dynamic.run_for d 20_000.;
  check_recovered ~what:"kill owner" ~seed d recv flow monitor ~fault_at

(* --- scenario: rolling crash/restart storm over the schedule DSL --- *)

let scenario_churn ~seed () =
  let d = build ~seed () in
  let recv, _send, _id, flow, monitor = start_probes d in
  let fault_at = Transport.Dynamic.now d in
  let storm =
    Faults.churn
      (Rng.create (Int64.of_int (seed + 100)))
      ~victims:[ 2; 5; 7 ] ~start:2_000. ~spacing:6_000. ~downtime:8_000.
  in
  Transport.Dynamic.inject d storm;
  (* last crash at 2s + 2*6s = 14s, last restart 8s later; let it land *)
  Transport.Dynamic.run_for d 30_000.;
  check_recovered ~what:"rolling churn" ~seed d recv flow monitor ~fault_at

(* --- scenario: total blackhole, the flight recorder must fire --- *)

let scenario_blackhole ~seed () =
  let d = build ~seed () in
  let recv, _send, _id, flow, monitor = start_probes d in
  let fault_at = Transport.Dynamic.now d in
  Transport.Dynamic.inject d
    [ (0., Faults.Loss 1.0); (12_000., Faults.Loss 0.0) ];
  Transport.Dynamic.run_for d 20_000.;
  (* Nothing gets through, so the windowed delivery ratio falls straight
     to zero: the rule must reach Violated (not merely Degraded), and the
     Ok->Violated edge must capture a flight record carrying real
     control-plane history, not empty shells. *)
  let _ok, _deg, violated = Obs.Health.counts (Eval.Monitor.health monitor) in
  Alcotest.(check bool) "monitor reached Violated" true (violated > 0);
  (match Eval.Monitor.dumps monitor with
  | [] -> Alcotest.fail "no flight-recorder dump captured"
  | (dump_at, dump) :: _ ->
      Alcotest.(check bool) "dump captured after the fault" true
        (dump_at >= fault_at);
      List.iter
        (fun key ->
          match Json.path dump key with
          | Some (Json.List (_ :: _)) -> ()
          | _ -> Alcotest.fail (Printf.sprintf "dump section %s is empty" key))
        [ "evaluations"; "metrics"; "series"; "spans"; "traces" ]);
  check_recovered ~what:"blackhole" ~seed d recv flow monitor ~fault_at

(* --- scenario: burst loss while the ring is still stabilizing --- *)

let test_burst_during_stabilization () =
  let seed = 41 in
  let d = Transport.Dynamic.create ~metrics:(Obs.Metrics.create ()) ~seed () in
  (* Gilbert–Elliott bursts from the very first join, lifted at 30 s. *)
  let lift_at = 30_000. in
  Transport.Dynamic.inject d
    [
      (0., Faults.Burst_loss { p_enter = 0.05; p_exit = 0.25; loss_bad = 0.9 });
      (lift_at, Faults.Burst_end);
    ];
  for site = 0 to 9 do
    ignore (Transport.Dynamic.add_server d ~site ());
    Transport.Dynamic.run_for d 2_000.
  done;
  let conv = Eval.Recovery.converges_within ~budget:180_000. (probe_rng seed) d in
  Alcotest.(check bool) "converges once the burst lifts" true (conv <> None);
  Alcotest.(check bool) "burst drops counted as such" true
    ((Transport.Dynamic.net_stats d).Net.dropped_burst > 0);
  let recv = Transport.Dynamic.new_host d ~config:chaos_host_config () in
  let send = Transport.Dynamic.new_host d ~config:chaos_host_config () in
  let got = collect recv in
  let id = I3.Host.new_private_id recv in
  I3.Host.insert_trigger recv id;
  Transport.Dynamic.run_for d 3_000.;
  (* The ring converges while the burst still rages, and rendezvous
     works through it.  i3 data is best effort and a burst drops a lone
     packet about one time in three, so the sender retries, as an
     application on a lossy path must. *)
  Alcotest.(check bool) "the rendezvous starts under the burst" true
    (Transport.Dynamic.now d < lift_at);
  let rec retry n =
    if n > 0 && not (List.mem "through-the-storm" (got ())) then begin
      I3.Host.send send id "through-the-storm";
      Transport.Dynamic.run_for d 250.;
      retry (n - 1)
    end
  in
  retry 20;
  Alcotest.(check bool) "rendezvous works under the burst" true
    (List.mem "through-the-storm" (got ()));
  (* Once the burst lifts, not one packet may be lost. *)
  Transport.Dynamic.run_for d
    (Float.max 0. (lift_at -. Transport.Dynamic.now d));
  I3.Host.send send id "after-the-storm";
  Transport.Dynamic.run_for d 3_000.;
  Alcotest.(check (list string)) "rendezvous works" [ "after-the-storm" ]
    (List.filter (fun p -> p <> "through-the-storm") (got ()))

(* --- scenario: gray (one-way) link between two ring successors --- *)

let test_gray_link_between_successors () =
  let seed = 42 in
  let d = build ~seed () in
  let recv, _send, _id, flow, monitor = start_probes d in
  (* Ring-adjacent pair: sort live servers by identifier; join order is
     the site index. *)
  let by_id =
    List.sort
      (fun a b -> Id.compare (I3.Server.id a) (I3.Server.id b))
      (Transport.Dynamic.servers d)
  in
  let a, b =
    match by_id with x :: y :: _ -> (x, y) | _ -> assert false
  in
  let site_of s =
    let rec index i = function
      | [] -> assert false
      | s' :: rest ->
          if I3.Server.addr s' = I3.Server.addr s then i
          else index (i + 1) rest
    in
    index 0 (Transport.Dynamic.all_servers d)
  in
  let fa = site_of a and fb = site_of b in
  let fault_at = Transport.Dynamic.now d in
  Transport.Dynamic.inject d
    [
      (0., Faults.Gray { from_site = fa; to_site = fb });
      (25_000., Faults.Gray_heal { from_site = fa; to_site = fb });
    ];
  Transport.Dynamic.run_for d 25_000.;
  Alcotest.(check bool) "gray drops counted as such" true
    ((Transport.Dynamic.net_stats d).Net.dropped_gray > 0);
  Transport.Dynamic.run_for d 5_000.;
  ignore (check_recovered ~what:"gray link" ~seed d recv flow monitor ~fault_at)

(* --- satellite: gateway rotation after ack_grace expiry --- *)

let test_gateway_rotation_after_ack_grace () =
  (* Static ring with NO membership repair (Deployment.kill_server): once
     the trigger's owner dies, refresh acks stop for good, so every
     refresh tick past [ack_grace] must rotate the host to its next
     gateway (Sec. IV-C) — deterministically, unlike the dynamic ring
     where healing races the grace period. *)
  let dep =
    Transport.Deployment.create ~metrics:(Obs.Metrics.create ()) ~seed:51
      ~n_servers:4 ()
  in
  let host =
    Transport.Deployment.new_host dep ~config:chaos_host_config ~n_gateways:3 ()
  in
  let id = I3.Host.new_private_id host in
  I3.Host.insert_trigger host id;
  Transport.Deployment.run_for dep 3_000.;
  let owner = Transport.Deployment.responsible_server dep id in
  let idx = ref (-1) in
  for i = 0 to Transport.Deployment.ring_size dep - 1 do
    if I3.Server.addr (Transport.Deployment.server dep i) = I3.Server.addr owner then
      idx := i
  done;
  Transport.Deployment.kill_server dep !idx;
  let seen = ref [ I3.Host.gateway host ] in
  for _ = 1 to 30 do
    Transport.Deployment.run_for dep 1_000.;
    let g = I3.Host.gateway host in
    if not (List.mem g !seen) then seen := g :: !seen
  done;
  Alcotest.(check bool) "rotated through other gateways" true
    (List.length !seen >= 2)

(* --- a host that only sends must still leave a dead gateway --- *)

let test_pure_sender_leaves_dead_gateway () =
  (* The sender holds no trigger, so no refresh ack can tell it that its
     gateway died; the only signal is a gateway detour that never draws
     Cache_info.  Once the sender cache entry lapses (cache_ttl) every
     packet detours through the dead gateway, so without that signal the
     flow stays dark for good. *)
  let d = build ~seed:34 () in
  let recv = Transport.Dynamic.new_host d ~config:chaos_host_config () in
  let send = Transport.Dynamic.new_host d ~config:chaos_host_config () in
  let dead = I3.Host.gateway send in
  (* A flow identifier owned by some other server, so the kill leaves
     the rendezvous itself intact. *)
  let rec pick () =
    let id = I3.Host.new_private_id recv in
    match Transport.Dynamic.owners_of d id with
    | [ o ] when I3.Server.addr o <> dead -> id
    | _ -> pick ()
  in
  let id = pick () in
  I3.Host.insert_trigger recv id;
  Transport.Dynamic.run_for d 3_000.;
  let flow =
    Eval.Recovery.start_flow d ~sender:send ~receiver:recv ~period:100. id
  in
  Transport.Dynamic.run_for d 5_000.;
  Alcotest.(check bool) "flow delivers before the kill" true
    (Eval.Recovery.received flow > 0);
  List.iter
    (fun s -> if I3.Server.addr s = dead then Transport.Dynamic.kill_server d s)
    (Transport.Dynamic.servers d);
  (* By now the cache entry has lapsed and packets detour through the
     dead gateway. *)
  Transport.Dynamic.run_for d
    (chaos_host_config.I3.Host.cache_ttl_ms +. 1_000.);
  let dark_at = Transport.Dynamic.now d in
  Transport.Dynamic.run_for d (2. *. repair_bound);
  Eval.Recovery.stop_flow flow;
  Alcotest.(check bool) "sender rotated off the dead gateway" true
    (I3.Host.gateway send <> dead);
  Alcotest.(check bool) "flow delivers again" true
    (Eval.Recovery.time_to_recovery flow ~after:dark_at <> None)

(* --- satellite: backup trigger fall-through after a server death --- *)

let test_send_with_backup_fallthrough () =
  (* Freeze the soft-state machinery (hour-scale refresh and trigger
     lifetimes) so the primary trigger is NOT re-inserted after its
     server dies: the only path left is the [primary; backup] stack
     falling through to the backup at Id.antipode (Sec. IV-C). *)
  let slow_host =
    {
      I3.Host.refresh_period_ms = 600_000.;
      cache_ttl_ms = 4_000.;
      ack_grace_ms = 1_200_000.;
    }
  in
  let server_config =
    { I3.Server.default_config with trigger_lifetime = 3_600_000. }
  in
  let d = build ~server_config ~seed:33 () in
  let recv = Transport.Dynamic.new_host d ~config:slow_host () in
  let got = collect recv in
  let id = I3.Host.new_private_id recv in
  let backup = I3.Host.insert_trigger_with_backup recv id in
  Transport.Dynamic.run_for d 5_000.;
  let primary_owner =
    match Transport.Dynamic.owners_of d id with
    | [ o ] -> o
    | l -> Alcotest.fail (Printf.sprintf "%d primary owners" (List.length l))
  in
  (match Transport.Dynamic.owners_of d backup with
  | [ o ] ->
      Alcotest.(check bool) "backup stored on a different server" true
        (I3.Server.addr o <> I3.Server.addr primary_owner)
  | l -> Alcotest.fail (Printf.sprintf "%d backup owners" (List.length l)));
  Transport.Dynamic.kill_server d primary_owner;
  (* ring heals around the dead server; nobody re-inserts the primary *)
  Transport.Dynamic.run_for d 40_000.;
  let sender = Transport.Dynamic.new_host d ~config:slow_host () in
  I3.Host.send sender id "plain";
  Transport.Dynamic.run_for d 5_000.;
  Alcotest.(check (list string)) "plain send is lost" [] (got ());
  I3.Host.send_with_backup sender ~primary:id ~backup "fell-through";
  Transport.Dynamic.run_for d 5_000.;
  Alcotest.(check (list string)) "backup delivers" [ "fell-through" ] (got ())

(* --- determinism: one seed, one trajectory --- *)

let test_reproducible () =
  let m1 = scenario_partition ~seed:21 () in
  let m2 = scenario_partition ~seed:21 () in
  Alcotest.(check int) "same sent" m1.Eval.Recovery.sent m2.Eval.Recovery.sent;
  Alcotest.(check int) "same delivered" m1.Eval.Recovery.delivered
    m2.Eval.Recovery.delivered;
  Alcotest.(check (option (float 0.0001)))
    "same time-to-recovery" m1.Eval.Recovery.time_to_recovery_ms
    m2.Eval.Recovery.time_to_recovery_ms

(* --- bench: recovery-time numbers through Eval.Report --- *)

let test_bench_report () =
  let metrics =
    [
      scenario_partition ~seed:24 ();
      scenario_kill_owner ~seed:25 ();
      scenario_churn ~seed:26 ();
    ]
  in
  Eval.Recovery.report metrics;
  List.iter
    (fun m -> Alcotest.(check bool) "scenario converged" true m.Eval.Recovery.converged)
    metrics

let matrix_case name scenario seed =
  Alcotest.test_case (Printf.sprintf "%s (seed %d)" name seed) `Slow (fun () ->
      ignore (scenario ~seed ()))

let () =
  Alcotest.run "chaos"
    [
      ( "matrix",
        List.concat_map
          (fun seed ->
            [
              matrix_case "partition+heal" scenario_partition seed;
              matrix_case "kill owner" scenario_kill_owner seed;
              matrix_case "rolling churn" scenario_churn seed;
              matrix_case "blackhole" scenario_blackhole seed;
            ])
          [ 21; 22; 23 ] );
      ( "link pathologies",
        [
          Alcotest.test_case "burst loss during stabilization" `Slow
            test_burst_during_stabilization;
          Alcotest.test_case "gray link between successors" `Slow
            test_gray_link_between_successors;
        ] );
      ( "host recovery",
        [
          Alcotest.test_case "gateway rotation after ack_grace" `Slow
            test_gateway_rotation_after_ack_grace;
          Alcotest.test_case "backup trigger fall-through" `Slow
            test_send_with_backup_fallthrough;
          Alcotest.test_case "pure sender leaves a dead gateway" `Slow
            test_pure_sender_leaves_dead_gateway;
        ] );
      ( "determinism",
        [ Alcotest.test_case "same seed, same metrics" `Slow test_reproducible ] );
      ( "bench",
        [ Alcotest.test_case "recovery report" `Slow test_bench_report ] );
    ]
