(* Partition and re-merge, at process granularity: two live [bin/i3d]
   daemons form a ring dynamically; SIGSTOP makes one unreachable with
   all its protocol state intact (a partition from the other's view);
   the survivor must evict it and run as a singleton; SIGCONT heals the
   "link" and the daemons' graveyard/contact probes must re-merge the
   two one-node rings into one — with zero wire decode errors across
   the whole episode.  On the way it checks that the harness's status
   socket drops late replies to probes that timed out.

   Skips (exit 0 with a SKIP line) where sockets or fork/exec are
   unavailable, exactly like test_cluster. *)

let skip reason =
  Printf.printf "SKIP ring_merge: %s\n%!" reason;
  exit 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      Printf.printf "FAIL ring_merge: %s\n%!" s;
      exit 1)
    fmt

let i3d_path =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name
       (Filename.concat "bin" "i3d.exe"))

let () =
  (match Transport.Udp.create () with
  | u -> Transport.Udp.close u
  | exception Unix.Unix_error (e, _, _) ->
      skip ("no loopback UDP: " ^ Unix.error_message e));
  if not (Sys.file_exists i3d_path) then skip ("no daemon at " ^ i3d_path);

  let cluster =
    Harness.Cluster.create ~metrics:(Obs.Metrics.create ()) ~i3d:i3d_path
      ~n:2 ()
  in
  Harness.Cluster.on_event cluster (fun s ->
      Printf.printf "[ring_merge] %s\n%!" s);
  (match Harness.Cluster.start cluster with
  | true -> ()
  | false ->
      Harness.Cluster.stop cluster;
      skip "cluster did not become ready (fork/exec restricted?)"
  | exception Unix.Unix_error (e, _, _) ->
      skip ("cannot fork daemons: " ^ Unix.error_message e));

  (* Phase 1: the two-node ring forms dynamically. *)
  if not (Harness.Cluster.await_converged cluster ~timeout_ms:15_000.) then begin
    Harness.Cluster.stop cluster;
    skip "initial ring never converged"
  end;
  Printf.printf "ring_merge: two-node ring converged\n%!";

  (* The status socket takes only the reply to the probe in flight.  A
     probe to a paused daemon times out; resumed, the daemon answers it
     late and the reply queues on the status socket; paused again, a
     fresh probe of the same kind must not take that reply for its own.
     A probe's wait reads everything queued, so ping and Get_state each
     get an episode of their own. *)
  let timeout_ms = Harness.Cluster.default_config.ping_timeout_ms in
  let answered_while_paused answered =
    Harness.Cluster.pause cluster 1;
    (* SIGSTOP is asynchronous: let it land before probing. *)
    Unix.sleepf 0.05;
    answered ()
  in
  let late_reply_dropped what answered =
    if answered_while_paused answered then begin
      Harness.Cluster.stop cluster;
      fail "a %s to the paused daemon was answered" what
    end;
    Harness.Cluster.resume cluster 1;
    Unix.sleepf 0.2;
    if answered_while_paused answered then begin
      Harness.Cluster.stop cluster;
      fail "a fresh %s took the late reply to a timed-out one" what
    end
  in
  late_reply_dropped "ping" (fun () ->
      Harness.Cluster.ping cluster 1 ~timeout_ms <> None);
  late_reply_dropped "Get_state" (fun () ->
      Harness.Cluster.ring_state cluster 1 ~timeout_ms <> None);
  Printf.printf "ring_merge: late replies to timed-out probes dropped\n%!";

  (* Phase 2: partition.  Daemon 1 stays stopped; daemon 0 must declare
     it dead (missed stabilize RPCs) and close the ring around itself. *)
  (* Daemon 0 runs alone once it knows no successor or names itself,
     asked over the wire until a 15 s deadline. *)
  let survivor_alone () =
    let self = (Harness.Cluster.member cluster 0).Harness.Cluster.addr in
    let deadline = Unix.gettimeofday () +. 15. in
    let rec go () =
      match
        Harness.Cluster.ring_state cluster 0
          ~timeout_ms:Harness.Cluster.default_config.ping_timeout_ms
      with
      | Some { Harness.Cluster.succs = []; _ } -> true
      | Some { succs = s :: _; _ } when s.Chord.Protocol.addr = self -> true
      | _ when Unix.gettimeofday () >= deadline -> false
      | _ ->
          Unix.sleepf 0.05;
          go ()
    in
    go ()
  in
  if not (survivor_alone ()) then begin
    Harness.Cluster.stop cluster;
    fail "survivor never evicted the paused member"
  end;
  Printf.printf "ring_merge: survivor runs as a singleton\n%!";

  (* Phase 3: heal.  SIGCONT wakes daemon 1 with its old ring state; the
     graveyard/contact probes on both sides must stitch the two views
     back into one two-node ring. *)
  Harness.Cluster.resume cluster 1;
  if not (Harness.Cluster.await_converged cluster ~timeout_ms:20_000.) then begin
    Harness.Cluster.stop cluster;
    fail "ring never re-merged after resume"
  end;
  Printf.printf "ring_merge: ring re-merged after resume\n%!";

  (* Post-mortem: graceful stop flushes the daemons' metric dumps; the
     whole episode must be wire-clean. *)
  Harness.Cluster.stop cluster;
  let decode_errors = Harness.Cluster.decode_errors cluster in
  if decode_errors <> 0 then
    fail "daemons counted %d wire decode errors" decode_errors;
  (* Passed: remove the run's directory of logs and dumps (a failing
     run exits above and keeps it). *)
  ignore (Sys.command ("rm -rf " ^ Filename.quote (Harness.Cluster.dir cluster)));
  print_endline "PASS ring_merge: partition -> singleton -> re-merge, wire clean"
