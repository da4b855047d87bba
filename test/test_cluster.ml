(* Live five-daemon chaos acceptance: the kill-owner scenario
   test_chaos runs in simulation, through the same [Harness.Recovery]
   code on a [Harness.Fleet.live] of real [bin/i3d] processes, with the
   client's sends subjected to default-intensity fault injection
   ([Transport.Faulty], loss 0.1 + 2 ms jitter).

   Invariants pinned:
   - ring convergence after the restart, by Get_state probes;
   - trigger conservation: every registered trigger is matchable at its
     responsible daemon after the kill/restart cycle (client refresh
     re-populated the restarted daemon's empty soft state);
   - delivery restored: the probe flow recovers after the failover and
     the live [Obs.Health] monitor both detects the outage and observes
     the recovery (TTD/TTR measured on the wall clock);
   - client robustness budget holds: [client.gave_up] = 0;
   - wire hygiene: [wire.decode_errors] = 0 summed over the client and
     every daemon's graceful-shutdown metrics dump.

   Sandboxes without loopback sockets or fork/exec skip rather than
   fail, exactly like test_interop; CI runs this as its own step. *)

let skip reason =
  Printf.printf "SKIP cluster: %s\n%!" reason;
  exit 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      Printf.printf "FAIL cluster: %s\n%!" s;
      exit 1)
    fmt

let i3d_path =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name
       (Filename.concat "bin" "i3d.exe"))

let () =
  (* Gate: loopback UDP must be available at all. *)
  (match Transport.Udp.create () with
  | u -> Transport.Udp.close u
  | exception Unix.Unix_error (e, _, _) ->
      skip ("no loopback UDP: " ^ Unix.error_message e));
  if not (Sys.file_exists i3d_path) then skip ("no daemon at " ^ i3d_path);

  let rng = Rng.of_int 2026 in
  let metrics = Obs.Metrics.create () in
  let cluster =
    Harness.Cluster.create ~metrics ~i3d:i3d_path ~n:5 ()
  in
  Harness.Cluster.on_event cluster (fun s ->
      Printf.printf "[cluster] %s\n%!" s);
  (match Harness.Cluster.start cluster with
  | true -> ()
  | false ->
      Harness.Cluster.stop cluster;
      skip "cluster did not become ready (fork/exec restricted?)"
  | exception Unix.Unix_error (e, _, _) ->
      skip ("cannot fork daemons: " ^ Unix.error_message e));

  (* The ring now forms dynamically (every daemon joins via --join);
     ownership is only meaningful once stabilization has converged. *)
  if not (Harness.Cluster.await_converged cluster ~timeout_ms:15_000.) then begin
    Harness.Cluster.stop cluster;
    skip "ring did not converge within 15s"
  end;
  Printf.printf "cluster: ring converged\n%!";

  (* End-host: client behind default-intensity fault injection. *)
  let udp = Transport.Udp.create () in
  let faulty = Transport.Faulty.of_udp ~metrics ~rng:(Rng.split rng) udp in
  Transport.Faulty.apply faulty (Faults.Loss 0.1);
  Transport.Faulty.apply faulty (Faults.Jitter 2.);
  let client =
    Transport.Client.create ~metrics
      ~config:
        { Transport.Client.default_config with refresh_period_ms = 1_500. }
      ~faulty ~rng:(Rng.split rng)
      ~gateways:[ List.hd (Harness.Cluster.addrs cluster) ]
      udp
  in
  let fleet = Harness.Fleet.live ~faulty ~metrics cluster client in
  let r = Harness.Recovery.create fleet in
  (* One schedule rule on both substrates: a victim outside the fleet is
     refused when the schedule is handed over, as in test_chaos. *)
  (match Harness.Fleet.inject fleet [ (1_000., Faults.Crash 5) ] with
  | exception Invalid_argument msg ->
      if msg <> "Fleet.inject: no member 5 in a fleet of 5" then
        fail "inject refused daemon 5 with %S" msg
  | () -> fail "inject accepted a crash of daemon 5 in a fleet of 5");

  (* Three triggers; the probed one is owned by a non-gateway daemon so
     the kill hits the inter-server path. *)
  let rec pick_probe () =
    let id = Id.random rng in
    if Harness.Fleet.owner_index fleet id <> 0 then id else pick_probe ()
  in
  let probe_id = pick_probe () in
  let me = Transport.Host.addr (Transport.Client.host client) in
  let triggers =
    I3.Trigger.to_host ~id:probe_id ~owner:me
    :: List.init 2 (fun _ -> I3.Trigger.to_host ~id:(Id.random rng) ~owner:me)
  in
  List.iteri
    (fun i tr ->
      match Transport.Client.insert client tr with
      | `Acked -> ()
      | `Gave_up -> fail "initial insert %d gave up" i)
    triggers;
  Printf.printf "cluster: 5 daemons up, probe id owned by daemon %d\n%!"
    (Harness.Fleet.owner_index fleet probe_id);

  let counter name =
    match Obs.Metrics.find metrics ~labels:[ ("instance", "client") ] name with
    | Some (Obs.Metrics.Counter c) -> c
    | _ -> 0
  in

  (* The kill-owner scenario test_chaos runs in simulation, aimed right
     after a refresh round is acked: the probe's trigger is then gone
     for most of a 1.5 s refresh period, long enough for the 2 s
     delivery window to see (killed at a random point of the period,
     the outage can be as short as 0.6 s).  The owner stays down 1.7 s,
     well inside the client's two-round retry budget. *)
  let flow =
    Harness.Recovery.start_flow ~period:100. r ~name:"probe" probe_id
  in
  let mon =
    Harness.Recovery.monitor ~period:250. r
      ~rules:(Harness.Recovery.live_rules flow)
  in
  let acked = counter "client.acks" in
  let deadline = Harness.Fleet.now fleet +. 3_000. in
  while counter "client.acks" = acked && Harness.Fleet.now fleet < deadline do
    Harness.Fleet.run_for fleet 10.
  done;
  let m =
    Harness.Recovery.run r
      (Harness.Recovery.kill_owner ~down_ms:1_700. ~fault_ms:7_500.)
      ~budget:15_000. ~repair_ms:1_500. flow mon
  in

  (* Post-mortem: graceful stop flushes every daemon's metrics dump. *)
  Harness.Cluster.stop cluster;

  let gave_up = counter "client.gave_up" in
  let refreshes = counter "client.refreshes" in
  let decode_errors = Harness.Fleet.decode_errors fleet in
  let ms = Option.fold ~none:"-" ~some:(Printf.sprintf "%.0fms") in
  Printf.printf
    "flow: %d/%d delivered (ratio %.3f), longest outage %.0f ms\n\
     recovery: converged=%b ttr=%s detect=%s monitor_ttr=%s\n\
     client: retries=%d timeouts=%d gave_up=%d refreshes=%d\n\
     wire: decode_errors=%d\n%!"
    m.delivered m.sent m.delivery_ratio m.longest_outage_ms m.converged
    (ms m.time_to_recovery_ms) (ms m.detect_ms) (ms m.monitor_ttr_ms)
    (counter "client.retries") (counter "client.timeouts") gave_up refreshes
    decode_errors;

  if not m.converged then fail "ring did not re-converge after the restart";
  if not m.conserved then fail "trigger conservation violated after failover";
  if m.time_to_recovery_ms = None then
    fail "delivery never recovered after the kill";
  if m.detect_ms = None then fail "monitor never detected the outage";
  if gave_up <> 0 then fail "client.gave_up = %d (budget exhausted)" gave_up;
  if decode_errors <> 0 then
    fail "%d wire decode errors across the client and the daemons"
      decode_errors;
  (* Refreshes must actually have happened for conservation to mean
     anything: the restarted daemon began empty. *)
  if refreshes = 0 then fail "no soft-state refreshes observed";
  (* Passed: remove the run's directory of logs and dumps (a failing
     run exits above and keeps it). *)
  ignore (Sys.command ("rm -rf " ^ Filename.quote (Harness.Cluster.dir cluster)));
  print_endline "PASS cluster: conservation, recovery, monitor, wire hygiene"
