(* Supervision over a real process: a member binary that exits at once
   (/bin/false) makes [Harness.Cluster.supervise] reap it and respawn it
   each time its backoff allows.  Pinned:
   - [cluster.crashes] counts every exit, [cluster.restarts] every
     respawn;
   - the delays between spawns double from
     [Cluster.restart_backoff_base_ms], and so does the delay armed
     after the last exit, capped at [Cluster.restart_backoff_max_ms].

   Sandboxes without loopback sockets (the cluster binds its probe
   sockets), /bin/false or fork/exec skip rather than fail, like the
   other live-process tests. *)

let skip reason =
  Printf.printf "SKIP supervise: %s\n%!" reason;
  exit 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      Printf.printf "FAIL supervise: %s\n%!" s;
      exit 1)
    fmt

let exits_at_once = "/bin/false"
let wall_ms () = Unix.gettimeofday () *. 1000.

let () =
  if not (Sys.file_exists exits_at_once) then skip ("no " ^ exits_at_once);
  let metrics = Obs.Metrics.create () in
  let cluster =
    match Harness.Cluster.create ~metrics ~i3d:exits_at_once ~n:1 () with
    | c -> c
    | exception Unix.Unix_error (e, _, _) ->
        skip ("no loopback UDP: " ^ Unix.error_message e)
  in
  let spawns = ref [] in
  Harness.Cluster.on_event cluster (fun s ->
      if String.starts_with ~prefix:"spawn " s then
        spawns := wall_ms () :: !spawns);
  (try Harness.Cluster.spawn cluster 0
   with Unix.Unix_error (e, _, _) ->
     skip ("cannot fork: " ^ Unix.error_message e));
  let m = Harness.Cluster.member cluster 0 in
  (* Tick for 1.5 s, then until the last child's exit is reaped, so
     every spawn has been seen to exit. *)
  let until = wall_ms () +. 1_500. in
  while wall_ms () < until || m.pid <> None do
    if wall_ms () > until +. 10_000. then fail "%s never exited" exits_at_once;
    Harness.Cluster.supervise cluster;
    Unix.sleepf 0.002
  done;
  Harness.Cluster.stop cluster;
  let spawns = List.rev !spawns in
  let n = List.length spawns in
  let count name =
    Obs.Metrics.sum_counters metrics ~labels:[ ("instance", "cluster") ] name
  in
  if count "cluster.spawns" <> n then
    fail "cluster.spawns %d, %d spawn events" (count "cluster.spawns") n;
  if count "cluster.crashes" <> n then
    fail "cluster.crashes %d after %d exits" (count "cluster.crashes") n;
  if count "cluster.restarts" <> n - 1 then
    fail "cluster.restarts %d after %d respawns" (count "cluster.restarts")
      (n - 1);
  (* Each gap is the backoff armed at the exit plus the time to notice
     the exit and the next tick: at least the backoff, and well short of
     the next doubling. *)
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b -. a) :: gaps rest
    | _ -> []
  in
  let gaps = gaps spawns in
  if List.length gaps < 3 then fail "only %d respawns in 1.5 s" (n - 1);
  List.iteri
    (fun k gap ->
      let expected =
        Float.min
          (Harness.Cluster.restart_backoff_base_ms *. (2. ** float_of_int k))
          Harness.Cluster.restart_backoff_max_ms
      in
      if gap < expected || gap >= 1.5 *. expected then
        fail "respawn %d came %.1f ms after the last, expected %g ms" (k + 1)
          gap expected)
    gaps;
  (* The delay armed for the next respawn doubled once per exit, capped. *)
  let armed =
    Float.min
      (Harness.Cluster.restart_backoff_base_ms *. (2. ** float_of_int n))
      Harness.Cluster.restart_backoff_max_ms
  in
  if m.backoff_ms <> armed then
    fail "armed backoff %g ms after %d exits, expected %g" m.backoff_ms n armed;
  (* Passed: remove the run's directory of logs and dumps (a failing
     run exits above and keeps it). *)
  ignore (Sys.command ("rm -rf " ^ Filename.quote (Harness.Cluster.dir cluster)));
  Printf.printf "supervise OK: %d spawns, gaps %s ms\n%!" n
    (String.concat " " (List.map (Printf.sprintf "%.0f") gaps))
