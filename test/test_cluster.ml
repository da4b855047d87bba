(* Live five-daemon chaos acceptance: the simulator's recovery
   invariants ([Eval.Recovery] / [Eval.Monitor]) asserted against real
   [bin/i3d] processes under a seeded kill/restart schedule, with the
   client's sends subjected to default-intensity fault injection
   ([Transport.Faulty], loss 0.1 + 2 ms jitter).

   Invariants pinned (ISSUE acceptance):
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

let wall_ms () = Unix.gettimeofday () *. 1000.

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
    Harness.Cluster.create ~metrics ~rng:(Rng.split rng) ~i3d:i3d_path ~n:5 ()
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
  let live = Harness.Live.attach ~metrics client in

  (* Three triggers; the probed one is owned by a non-gateway daemon so
     the kill hits the inter-server path. *)
  let rec pick_probe () =
    let id = Id.random rng in
    if Harness.Cluster.owner_index cluster id <> 0 then id else pick_probe ()
  in
  let probe_id = pick_probe () in
  let owner = Harness.Cluster.owner_index cluster probe_id in
  let me = Transport.Client.local_addr client in
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
  Printf.printf "cluster: 5 daemons up, probe id owned by daemon %d\n%!" owner;

  let flow = Harness.Live.start_flow live ~name:"probe" probe_id in
  let mon =
    Harness.Live.monitor ~rules:(Harness.Live.default_rules flow) live
  in

  (* Seeded kill/restart of the probe's owner: 1.7 s of real downtime,
     well inside the client's two-round retry budget. *)
  let crash_at = 2_500. and restart_at = 4_200. and duration_ms = 10_000. in
  let t0 = wall_ms () in
  Harness.Cluster.run_schedule ~faulty
    ~tick:(fun ~now_ms ->
      ignore (Transport.Client.wait client ~timeout:0.005);
      Transport.Client.poll client ~now:now_ms;
      Harness.Live.flow_tick live flow ~now_ms;
      Harness.Live.monitor_tick mon ~now_ms)
    cluster
    [ (crash_at, Faults.Crash owner); (restart_at, Faults.Restart owner) ]
    ~duration_ms;
  Harness.Live.stop_flow flow;
  let fault_at = t0 +. crash_at in

  (* Invariant 1: trigger conservation across the kill/restart cycle. *)
  let conserved = Harness.Live.triggers_conserved live in

  (* Post-mortem: graceful stop flushes every daemon's metrics dump. *)
  Harness.Cluster.stop cluster;

  let counter ?(labels = [ ("instance", "client") ]) name =
    match Obs.Metrics.find metrics ~labels name with
    | Some (Obs.Metrics.Counter c) -> c
    | _ -> 0
  in
  let gave_up = counter "client.gave_up" in
  let retries = counter "client.retries" in
  let timeouts = counter "client.timeouts" in
  let refreshes = counter "client.refreshes" in
  let client_decode_errors =
    counter ~labels:[ ("instance", "client"); ("proto", "i3") ]
      "wire.decode_errors"
  in
  let daemon_decode_errors = Harness.Cluster.decode_errors cluster in
  let ttr = Harness.Live.time_to_recovery flow ~after:fault_at in
  let detect = Harness.Live.time_to_detect mon ~fault_at in
  let mon_ttr = Harness.Live.time_to_recover mon ~fault_at in

  Printf.printf
    "flow: %d/%d delivered (ratio %.3f), longest outage %.0f ms\n\
     recovery: ttr=%s detect=%s monitor_ttr=%s\n\
     client: retries=%d timeouts=%d gave_up=%d refreshes=%d\n\
     wire: decode_errors daemons=%d client=%d\n%!"
    (Harness.Live.received flow)
    (Harness.Live.sent flow)
    (Harness.Live.delivery_ratio flow)
    (Harness.Live.longest_outage flow)
    (match ttr with Some v -> Printf.sprintf "%.0fms" v | None -> "-")
    (match detect with Some v -> Printf.sprintf "%.0fms" v | None -> "-")
    (match mon_ttr with Some v -> Printf.sprintf "%.0fms" v | None -> "-")
    retries timeouts gave_up refreshes daemon_decode_errors
    client_decode_errors;

  if not conserved then fail "trigger conservation violated after failover";
  if ttr = None then fail "delivery never recovered after the kill";
  if detect = None then fail "monitor never detected the outage";
  if gave_up <> 0 then fail "client.gave_up = %d (budget exhausted)" gave_up;
  if daemon_decode_errors <> 0 then
    fail "daemons counted %d wire decode errors" daemon_decode_errors;
  if client_decode_errors <> 0 then
    fail "client counted %d wire decode errors" client_decode_errors;
  (* Refreshes must actually have happened for conservation to mean
     anything: the restarted daemon began empty. *)
  if refreshes = 0 then fail "no soft-state refreshes observed";
  print_endline "PASS cluster: conservation, recovery, monitor, wire hygiene"
