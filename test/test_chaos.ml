(* Chaos scenario matrix: declarative fault schedules (Faults) injected
   into full decentralized deployments (Transport.Dynamic), with recovery
   checked through machine-checked invariants (Harness.Recovery over a
   Harness.Fleet.sim, the code test_cluster runs on real daemons) — the
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
    Transport.Host.refresh_period_ms = 2_000.;
    cache_ttl_ms = 4_000.;
    ack_grace_ms = 5_000.;
  }

let repair_bound =
  chaos_host_config.Transport.Host.refresh_period_ms
  +. chaos_host_config.Transport.Host.ack_grace_ms

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

(* The one net's [net.dropped] count for one fault cause. *)
let net_dropped d cause =
  Obs.Metrics.sum_counters (Transport.Dynamic.metrics d)
    ~labels:
      [ ("instance", Net.label (Transport.Dynamic.net d)); ("cause", cause) ]
    "net.dropped"

let probe_rng seed = Rng.create (Int64.of_int ((seed * 7919) + 13))

let collect host =
  let log = ref [] in
  Transport.Host.on_receive host (fun ~stack:_ ~payload -> log := payload :: !log);
  fun () -> List.rev !log

(* A rendezvous pair with a kept-refreshed trigger, a running probe flow,
   and a health monitor watching that flow and the control ring — the
   measurement substrate of every scenario.  The monitor reads only the
   registry, never the simulator's ground truth, so its detect/recover
   times can be compared against the recovery checks. *)
let start_probes ~seed d =
  let recv = Transport.Dynamic.new_host d ~config:chaos_host_config () in
  let send = Transport.Dynamic.new_host d ~config:chaos_host_config () in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Dynamic.run_for d 3_000.;
  let fleet =
    Harness.Fleet.sim ~rng:(probe_rng (seed + 1)) d ~sender:send ~receiver:recv
  in
  let r = Harness.Recovery.create fleet in
  let flow = Harness.Recovery.start_flow r ~name:"probe" id in
  let monitor =
    Harness.Recovery.monitor r ~rules:(Harness.Recovery.sim_rules flow)
  in
  Transport.Dynamic.run_for d 5_000.;
  (fleet, r, recv, flow, monitor)

(* The table-inspection oracle beside the behavioral check: every active
   trigger of every given host is stored (and matchable) at every live
   server claiming it, and at least one server claims it. *)
let table_conserved d hosts =
  let now = Transport.Dynamic.now d in
  List.for_all
    (fun host ->
      List.for_all
        (fun (tr : I3.Trigger.t) ->
          match Transport.Dynamic.owners_of d tr.I3.Trigger.id with
          | [] -> false
          | owners ->
              List.for_all
                (fun s ->
                  I3.Trigger_table.find_matches (I3.Server.triggers s) ~now
                    tr.I3.Trigger.id
                  <> [])
                owners)
        (Transport.Host.active_triggers host))
    hosts

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
let assert_wire_clean ~what fleet d =
  let frames =
    List.fold_left
      (fun acc (s : Obs.Metrics.sample) ->
        match s.value with
        | Obs.Metrics.Counter n when s.name = "driver.frames" -> acc + n
        | _ -> acc)
      0
      (Obs.Metrics.snapshot ~prefix:"driver.frames"
         (Transport.Dynamic.metrics d))
  in
  Alcotest.(check bool) (what ^ ": driver frames decoded") true (frames > 0);
  Alcotest.(check int) (what ^ ": wire.decode_errors = 0") 0
    (Harness.Fleet.decode_errors fleet)

(* What every scenario must show once [Harness.Recovery] has run its
   checks.  The paper's repair bound: after one refresh round plus the
   ack grace period, every trigger the host keeps alive is stored again
   at the (now unique) responsible server. *)
let assert_recovered ~what fleet d recv (m : Harness.Recovery.metrics) =
  Alcotest.(check bool) (what ^ ": ring re-converged") true m.converged;
  Alcotest.(check bool) (what ^ ": triggers conserved") true m.conserved;
  Alcotest.(check bool)
    (what ^ ": triggers stored at their owners") true
    (table_conserved d [ recv ]);
  (* Monitor vs oracle — the bounded observability gap.  Detection may
     lag the fault only by propagation plus a rule window plus a scrape
     period; and by the moment the oracle has just proven recovery (ring
     re-converged, triggers conserved, drain elapsed), the monitor's own
     history must already contain an Ok verdict after its first breach,
     i.e. monitor-recovery never trails the ground-truth proof point. *)
  Alcotest.(check bool)
    (what ^ ": monitor detected the fault") true (m.detect_ms <> None);
  (match m.detect_ms with
  | Some t ->
      Alcotest.(check bool)
        (what ^ ": detection lag bounded") true
        (t >= 0. && t <= 15_000.)
  | None -> ());
  Alcotest.(check bool)
    (what ^ ": monitor verdict recovered by the oracle's proof point") true
    (m.monitor_ttr_ms <> None);
  (match (m.detect_ms, m.monitor_ttr_ms) with
  | Some t, Some r ->
      Alcotest.(check bool)
        (what ^ ": recovery verdict follows detection") true (r >= t)
  | _ -> ());
  Alcotest.(check bool)
    (what ^ ": flow recovered after fault") true
    (m.time_to_recovery_ms <> None);
  assert_traces_conserved ~what d;
  assert_wire_clean ~what fleet d;
  m

let check_recovered ~what ~seed d (fleet, r, recv, flow, monitor) ~fault_at =
  assert_recovered ~what fleet d recv
    (Harness.Recovery.recover r
       ~scenario:(Printf.sprintf "%s (seed %d)" what seed)
       ~fault_at ~budget:120_000. ~repair_ms:repair_bound flow monitor)

(* --- scenario: partition the ring in half, then heal --- *)

let scenario_partition ~seed () =
  let d = build ~seed () in
  let probes = start_probes ~seed d in
  let fleet, _, _, _, _ = probes in
  Alcotest.(check bool) "initial convergence" true
    (Harness.Fleet.converged fleet);
  let fault_at = Transport.Dynamic.now d in
  Harness.Fleet.inject fleet
    [ (0., Faults.Partition [ 0; 1; 2; 3; 4 ]); (20_000., Faults.Heal) ];
  Transport.Dynamic.run_for d 15_000.;
  (* Mid-partition each half has converged to its own sub-ring, so probed
     identifiers have a claimant on both sides: the single-owner
     invariant is violated until the heal. *)
  Alcotest.(check bool) "split into two sub-rings" false
    (Harness.Fleet.converged fleet);
  Transport.Dynamic.run_for d 10_000.;
  let m =
    check_recovered ~what:"partition+heal" ~seed d probes ~fault_at
  in
  Alcotest.(check bool) "partition drops counted as such" true
    (net_dropped d "partition" > 0);
  m

(* --- scenario: kill the trigger's responsible server mid-refresh --- *)

(* The named scenario test_cluster runs on real daemons, through the
   same code.  The receiver's refreshes go unacked until the ring heals
   around the dead server and a refresh lands at the new owner — the
   killed server's triggers must be deliverable again within the
   paper's [refresh_period + ack_grace] repair bound of the heal.  The
   victim comes back, empty, 10 s after the kill. *)
let scenario_kill_owner ~seed () =
  let d = build ~seed () in
  let fleet, r, recv, flow, monitor = start_probes ~seed d in
  let scenario =
    Harness.Recovery.kill_owner ~down_ms:10_000. ~fault_ms:20_000.
  in
  let what = scenario.name in
  assert_recovered ~what fleet d recv
    (Harness.Recovery.run r
       { scenario with name = Printf.sprintf "%s (seed %d)" what seed }
       ~budget:120_000. ~repair_ms:repair_bound flow monitor)

(* --- scenario: rolling crash/restart storm over the schedule DSL --- *)

let scenario_churn ~seed () =
  let d = build ~seed () in
  let probes = start_probes ~seed d in
  let fleet, _, _, _, _ = probes in
  let fault_at = Transport.Dynamic.now d in
  let storm =
    Faults.churn
      (Rng.create (Int64.of_int (seed + 100)))
      ~victims:[ 2; 5; 7 ] ~start:2_000. ~spacing:6_000. ~downtime:8_000.
  in
  Harness.Fleet.inject fleet storm;
  (* last crash at 2s + 2*6s = 14s, last restart 8s later; let it land *)
  Transport.Dynamic.run_for d 30_000.;
  check_recovered ~what:"rolling churn" ~seed d probes ~fault_at

(* --- scenario: total blackhole, the flight recorder must fire --- *)

let scenario_blackhole ~seed () =
  let d = build ~seed () in
  let probes = start_probes ~seed d in
  let fleet, _, _, _, monitor = probes in
  let fault_at = Transport.Dynamic.now d in
  Harness.Fleet.inject fleet
    [ (0., Faults.Loss 1.0); (12_000., Faults.Loss 0.0) ];
  Transport.Dynamic.run_for d 20_000.;
  (* Nothing gets through, so the windowed delivery ratio falls straight
     to zero: the rule must reach Violated (not merely Degraded), and the
     Ok->Violated edge must capture a flight record carrying real
     control-plane history, not empty shells. *)
  let _ok, _deg, violated =
    Obs.Health.counts (Harness.Recovery.health monitor)
  in
  Alcotest.(check bool) "monitor reached Violated" true (violated > 0);
  (match Harness.Recovery.dumps monitor with
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
  check_recovered ~what:"blackhole" ~seed d probes ~fault_at

(* --- scenario: burst loss while the ring is still stabilizing --- *)

let test_burst_during_stabilization () =
  let seed = 41 in
  let d = Transport.Dynamic.create ~metrics:(Obs.Metrics.create ()) ~seed () in
  (* Gilbert–Elliott bursts from the very first join, lifted at 30 s. *)
  let lift_at = 30_000. in
  Faults.install (Transport.Dynamic.engine d)
    (Net.driver (Transport.Dynamic.net d))
    [
      (0., Faults.Burst_loss { p_enter = 0.05; p_exit = 0.25; loss_bad = 0.9 });
      (lift_at, Faults.Burst_end);
    ];
  for site = 0 to 9 do
    ignore (Transport.Dynamic.add_server d ~site ());
    Transport.Dynamic.run_for d 2_000.
  done;
  let recv = Transport.Dynamic.new_host d ~config:chaos_host_config () in
  let send = Transport.Dynamic.new_host d ~config:chaos_host_config () in
  let r =
    Harness.Recovery.create
      (Harness.Fleet.sim ~rng:(probe_rng seed) d ~sender:send ~receiver:recv)
  in
  let conv = Harness.Recovery.converges_within r ~budget:180_000. in
  Alcotest.(check bool) "converges once the burst lifts" true (conv <> None);
  Alcotest.(check bool) "burst drops counted as such" true
    (net_dropped d "burst" > 0);
  let got = collect recv in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Dynamic.run_for d 3_000.;
  (* The ring converges while the burst still rages, and rendezvous
     works through it.  i3 data is best effort and a burst drops a lone
     packet about one time in three, so the sender retries, as an
     application on a lossy path must. *)
  Alcotest.(check bool) "the rendezvous starts under the burst" true
    (Transport.Dynamic.now d < lift_at);
  let rec retry n =
    if n > 0 && not (List.mem "through-the-storm" (got ())) then begin
      Transport.Host.send send id "through-the-storm";
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
  Transport.Host.send send id "after-the-storm";
  Transport.Dynamic.run_for d 3_000.;
  Alcotest.(check (list string)) "rendezvous works" [ "after-the-storm" ]
    (List.filter (fun p -> p <> "through-the-storm") (got ()))

(* --- scenario: gray (one-way) link between two ring successors --- *)

let test_gray_link_between_successors () =
  let seed = 42 in
  let d = build ~seed () in
  let probes = start_probes ~seed d in
  let fleet, _, _, _, _ = probes in
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
  Harness.Fleet.inject fleet
    [
      (0., Faults.Gray { from_site = fa; to_site = fb });
      (25_000., Faults.Gray_heal { from_site = fa; to_site = fb });
    ];
  Transport.Dynamic.run_for d 25_000.;
  Alcotest.(check bool) "gray drops counted as such" true
    (net_dropped d "gray" > 0);
  Transport.Dynamic.run_for d 5_000.;
  ignore (check_recovered ~what:"gray link" ~seed d probes ~fault_at)

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
  let id = Transport.Host.new_private_id host in
  Transport.Host.insert_trigger host id;
  Transport.Deployment.run_for dep 3_000.;
  let owner = Transport.Deployment.responsible_server dep id in
  let idx = ref (-1) in
  for i = 0 to Transport.Deployment.ring_size dep - 1 do
    if I3.Server.addr (Transport.Deployment.server dep i) = I3.Server.addr owner then
      idx := i
  done;
  Transport.Deployment.kill_server dep !idx;
  let seen = ref [ Transport.Host.gateway host ] in
  for _ = 1 to 30 do
    Transport.Deployment.run_for dep 1_000.;
    let g = Transport.Host.gateway host in
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
  let dead = Transport.Host.gateway send in
  (* A flow identifier owned by some other server, so the kill leaves
     the rendezvous itself intact. *)
  let rec pick () =
    let id = Transport.Host.new_private_id recv in
    match Transport.Dynamic.owners_of d id with
    | [ o ] when I3.Server.addr o <> dead -> id
    | _ -> pick ()
  in
  let id = pick () in
  Transport.Host.insert_trigger recv id;
  Transport.Dynamic.run_for d 3_000.;
  let r =
    Harness.Recovery.create
      (Harness.Fleet.sim d ~sender:send ~receiver:recv)
  in
  let flow = Harness.Recovery.start_flow ~period:100. r ~name:"probe" id in
  Transport.Dynamic.run_for d 5_000.;
  Alcotest.(check bool) "flow delivers before the kill" true
    (Harness.Recovery.received flow > 0);
  List.iter
    (fun s -> if I3.Server.addr s = dead then Transport.Dynamic.kill_server d s)
    (Transport.Dynamic.servers d);
  (* By now the cache entry has lapsed and packets detour through the
     dead gateway. *)
  Transport.Dynamic.run_for d
    (chaos_host_config.Transport.Host.cache_ttl_ms +. 1_000.);
  let dark_at = Transport.Dynamic.now d in
  Transport.Dynamic.run_for d (2. *. repair_bound);
  Harness.Recovery.stop_flow flow;
  Alcotest.(check bool) "sender rotated off the dead gateway" true
    (Transport.Host.gateway send <> dead);
  Alcotest.(check bool) "flow delivers again" true
    (Harness.Recovery.time_to_recovery flow ~after:dark_at <> None)

(* --- satellite: backup trigger fall-through after a server death --- *)

let test_send_with_backup_fallthrough () =
  (* Freeze the soft-state machinery (hour-scale refresh and trigger
     lifetimes) so the primary trigger is NOT re-inserted after its
     server dies: the only path left is the [primary; backup] stack
     falling through to the backup at Id.antipode (Sec. IV-C). *)
  let slow_host =
    {
      Transport.Host.refresh_period_ms = 600_000.;
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
  let id = Transport.Host.new_private_id recv in
  let backup = Transport.Host.insert_trigger_with_backup recv id in
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
  Transport.Host.send sender id "plain";
  Transport.Dynamic.run_for d 5_000.;
  Alcotest.(check (list string)) "plain send is lost" [] (got ());
  Transport.Host.send_with_backup sender ~primary:id ~backup "fell-through";
  Transport.Dynamic.run_for d 5_000.;
  Alcotest.(check (list string)) "backup delivers" [ "fell-through" ] (got ())

(* --- determinism: one seed, one trajectory --- *)

let test_reproducible () =
  let (m1 : Harness.Recovery.metrics) = scenario_partition ~seed:21 () in
  let m2 = scenario_partition ~seed:21 () in
  Alcotest.(check int) "same sent" m1.sent m2.sent;
  Alcotest.(check int) "same delivered" m1.delivered m2.delivered;
  Alcotest.(check (option (float 0.0001)))
    "same time-to-recovery" m1.time_to_recovery_ms m2.time_to_recovery_ms

(* --- bench: recovery-time numbers through Harness.Recovery.report --- *)

let test_bench_report () =
  let metrics =
    [
      scenario_partition ~seed:24 ();
      scenario_kill_owner ~seed:25 ();
      scenario_churn ~seed:26 ();
    ]
  in
  Harness.Recovery.report metrics;
  List.iter
    (fun (m : Harness.Recovery.metrics) ->
      Alcotest.(check bool) "scenario converged" true m.converged)
    metrics

(* --- the conservation check can fail --- *)

let test_lost_trigger_not_conserved () =
  (* A trigger really is lost: its host stops refreshing (hour-scale
     refresh and grace, hour-long trigger lifetime), and its owner dies
     for good.  A second trigger, on a live owner, keeps a probe flow
     delivering to the same receiver throughout, so a check that took
     any Deliver for an answer would pass. *)
  let frozen_host =
    {
      Transport.Host.refresh_period_ms = 600_000.;
      cache_ttl_ms = 4_000.;
      ack_grace_ms = 1_200_000.;
    }
  in
  let server_config =
    { I3.Server.default_config with trigger_lifetime = 3_600_000. }
  in
  let seed = 36 in
  let d = build ~server_config ~seed () in
  let recv = Transport.Dynamic.new_host d ~config:frozen_host () in
  let send = Transport.Dynamic.new_host d ~config:chaos_host_config () in
  let fleet =
    Harness.Fleet.sim ~rng:(probe_rng seed) d ~sender:send ~receiver:recv
  in
  let r = Harness.Recovery.create fleet in
  (* Each trigger on its own owner, neither owner a host's gateway. *)
  let rec pick avoid =
    let id = Transport.Host.new_private_id recv in
    match Transport.Dynamic.owners_of d id with
    | [ o ] when not (List.mem (I3.Server.addr o) avoid) ->
        (id, I3.Server.addr o)
    | _ -> pick avoid
  in
  let gateways = [ Transport.Host.gateway recv; Transport.Host.gateway send ] in
  let lost, lost_owner = pick gateways in
  let kept, _ = pick (lost_owner :: gateways) in
  Transport.Host.insert_trigger recv lost;
  Transport.Host.insert_trigger recv kept;
  Transport.Dynamic.run_for d 3_000.;
  let flow = Harness.Recovery.start_flow ~period:100. r ~name:"kept" kept in
  Transport.Dynamic.run_for d 2_000.;
  Alcotest.(check bool) "both triggers conserved before the kill" true
    (Harness.Recovery.triggers_conserved r);
  Harness.Fleet.inject fleet
    [ (0., Faults.Crash (Harness.Fleet.owner_index fleet lost)) ];
  Transport.Dynamic.run_for d 20_000.;
  Alcotest.(check bool) "ring re-converged" true
    (Harness.Recovery.converges_within r ~budget:120_000. <> None);
  Transport.Dynamic.run_for d repair_bound;
  let before = Harness.Recovery.received flow in
  Alcotest.(check bool) "lost trigger is not conserved" false
    (Harness.Recovery.triggers_conserved r);
  Alcotest.(check bool) "probes to the kept trigger arrived meanwhile" true
    (Harness.Recovery.received flow > before);
  Alcotest.(check bool) "the table oracle agrees" false
    (table_conserved d [ recv ])

(* --- one schedule rule: victims are checked when injected --- *)

let test_inject_refuses_missing_victim () =
  let d =
    Transport.Dynamic.create ~metrics:(Obs.Metrics.create ()) ~seed:37 ()
  in
  for site = 0 to 2 do
    ignore (Transport.Dynamic.add_server d ~site ())
  done;
  Transport.Dynamic.run_for d 10_000.;
  let host () = Transport.Dynamic.new_host d () in
  let fleet = Harness.Fleet.sim d ~sender:(host ()) ~receiver:(host ()) in
  Alcotest.check_raises "crash of server 12 of 3"
    (Invalid_argument "Fleet.inject: no member 12 in a fleet of 3") (fun () ->
      Harness.Fleet.inject fleet
        [ (1_000., Faults.Crash 0); (5_000., Faults.Crash 12) ]);
  Alcotest.check_raises "restart of server -1"
    (Invalid_argument "Fleet.inject: no member -1 in a fleet of 3") (fun () ->
      Harness.Fleet.inject fleet [ (5_000., Faults.Restart (-1)) ]);
  (* Nothing of a refused schedule was installed: server 0 lives. *)
  Transport.Dynamic.run_for d 10_000.;
  Alcotest.(check int) "every server still up" 3
    (List.length (Transport.Dynamic.servers d))

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
      ( "conservation",
        [
          Alcotest.test_case "a lost trigger is not conserved" `Slow
            test_lost_trigger_not_conserved;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "inject refuses a missing victim" `Quick
            test_inject_refuses_missing_victim;
        ] );
      ( "determinism",
        [ Alcotest.test_case "same seed, same metrics" `Slow test_reproducible ] );
      ( "bench",
        [ Alcotest.test_case "recovery report" `Slow test_bench_report ] );
    ]
