(* Live telemetry acceptance: a 3-daemon cluster is scraped over the
   wire while a traced packet crosses it, and the drained trace rings
   assemble into one cross-process hop tree.

   The packet is forced through all three daemons with a service chain
   (paper Sec. 4: service composition): the client's probe carries
   [Sid a]; daemon owning [a] holds a trigger rewriting to [Sid b];
   daemon owning [b] holds the host trigger.  Identifiers are picked so
   the gateway (daemon 0) owns neither — it relays — and [a]/[b] live
   on daemons 1 and 2.  Every hop records into that daemon's trace ring
   under the trace id stamped by the client (packet bytes 28-35); the
   [Harness.Telemetry] collector drains the rings via Stats_request
   frames and [Obs.Trace.assemble] joins them on the id.

   Asserted:
   - the collector gets Stats_responses (wire scraping works end to end);
   - scraped series carry per-target tags (fleet-wide registry view);
   - at least one assembled tree spans >= 3 distinct daemon sites, all
     of them real daemon ports, every event sharing the one trace id the
     client stamped.

   Sandboxes without loopback sockets or fork/exec skip rather than
   fail, exactly like the other live-process tests. *)

let skip reason =
  Printf.printf "SKIP scrape: %s\n%!" reason;
  exit 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      Printf.printf "FAIL scrape: %s\n%!" s;
      exit 1)
    fmt

let i3d_path =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name
       (Filename.concat "bin" "i3d.exe"))

let wall_ms () = Unix.gettimeofday () *. 1000.

let () =
  (match Transport.Udp.create () with
  | u -> Transport.Udp.close u
  | exception Unix.Unix_error (e, _, _) ->
      skip ("no loopback UDP: " ^ Unix.error_message e));
  if not (Sys.file_exists i3d_path) then skip ("no daemon at " ^ i3d_path);

  let rng = Rng.of_int 808 in
  let metrics = Obs.Metrics.create () in
  let cluster =
    Harness.Cluster.create ~metrics ~i3d:i3d_path ~n:3 ()
  in
  (match Harness.Cluster.start cluster with
  | true -> ()
  | false ->
      Harness.Cluster.stop cluster;
      skip "cluster did not become ready (fork/exec restricted?)"
  | exception Unix.Unix_error (e, _, _) ->
      skip ("cannot fork daemons: " ^ Unix.error_message e));
  if not (Harness.Cluster.await_converged cluster ~timeout_ms:30_000.) then begin
    Harness.Cluster.stop cluster;
    skip "ring did not converge within 30s"
  end;
  let ports =
    List.map
      (fun (m : Harness.Cluster.member) -> m.port)
      (Harness.Cluster.members cluster)
  in
  Printf.printf "scrape: 3 daemons converged, sites %s\n%!"
    (String.concat "," (List.map string_of_int ports));

  (* The service chain: owner(a) = daemon 1, owner(b) = daemon 2, so
     with the gateway at daemon 0 the packet touches all three. *)
  let rec pick_owned_by idx =
    let id = Id.random rng in
    if Harness.Cluster.owner_index cluster id = idx then id
    else pick_owned_by idx
  in
  let id_a = pick_owned_by 1 and id_b = pick_owned_by 2 in

  let udp = Transport.Udp.create () in
  let client =
    Transport.Client.create ~metrics ~rng:(Rng.split rng)
      ~gateways:[ List.hd (Harness.Cluster.addrs cluster) ]
      udp
  in
  let me = Transport.Host.addr (Transport.Client.host client) in
  let delivered = ref 0 in
  Transport.Host.on_receive (Transport.Client.host client) (fun ~stack:_ ~payload:_ ->
      incr delivered);
  let chain = I3.Trigger.make ~id:id_a ~stack:[ I3.Packet.Sid id_b ] ~owner:me in
  let host = I3.Trigger.to_host ~id:id_b ~owner:me in
  List.iteri
    (fun i tr ->
      match Transport.Client.insert client tr with
      | `Acked -> ()
      | `Gave_up -> fail "trigger insert %d gave up" i)
    [ chain; host ];

  (* The collector: scrape + drain every 200 ms over the wire. *)
  let tel = Harness.Telemetry.of_cluster ~interval_ms:200. cluster in

  (* Send traced probes until a tree spans all three daemons (or we run
     out of budget).  Trace ids are client-chosen; remember them so the
     assembled tree can be pinned to a stamped packet. *)
  let base_trace = 7_000_000 in
  let sent = ref 0 in
  let spanning = ref None in
  let deadline = wall_ms () +. 20_000. in
  let last_send = ref neg_infinity in
  while !spanning = None && wall_ms () < deadline do
    let now = wall_ms () in
    if now -. !last_send >= 150. then begin
      last_send := now;
      incr sent;
      Transport.Host.send_packet (Transport.Client.host client)
        (I3.Packet.make
           ~trace:(base_trace + !sent)
           ~stack:[ I3.Packet.Sid id_a ]
           ~payload:(Printf.sprintf "probe %d" !sent)
           ())
    end;
    ignore (Transport.Client.wait client ~timeout:0.01);
    Transport.Client.poll client ~now:(wall_ms ());
    Harness.Telemetry.tick tel ~now_ms:(wall_ms ());
    spanning :=
      List.find_opt
        (fun t -> List.length t.Obs.Trace.a_sites >= 3)
        (Harness.Telemetry.assemble tel)
  done;

  let scr = Harness.Telemetry.scrape tel in
  let responses = Obs.Scrape.responses scr in
  let trees = Harness.Telemetry.assemble tel in
  Printf.printf
    "scrape: %d probes sent, %d delivered, %d/%d scrapes answered, %d trees\n%!"
    !sent !delivered responses (Obs.Scrape.polls scr) (List.length trees);

  (* Scraped series must carry the per-target tag (the fleet-wide view
     a dead process can't fake). *)
  let tagged =
    List.exists
      (fun s -> List.mem_assoc "target" (Obs.Series.labels s))
      (Obs.Series.all (Harness.Telemetry.store tel))
  in

  Harness.Telemetry.close tel;
  Harness.Cluster.stop cluster;
  Transport.Udp.close udp;

  if responses = 0 then fail "no Stats_response ever decoded";
  if not tagged then fail "scraped series missing (target, instance) tags";
  match !spanning with
  | None ->
      fail "no assembled trace spanned 3 daemons (%d trees, widest %d sites)"
        (List.length trees)
        (List.fold_left
           (fun acc t -> max acc (List.length t.Obs.Trace.a_sites))
           0 trees)
  | Some tree ->
      let id = tree.Obs.Trace.a_trace in
      if not (id > base_trace && id <= base_trace + !sent) then
        fail "assembled trace id %d was never stamped by the client" id;
      List.iter
        (fun (e : Obs.Trace.event) ->
          if e.Obs.Trace.trace <> id then
            fail "tree mixes trace ids (%d vs %d)" e.Obs.Trace.trace id)
        tree.Obs.Trace.a_events;
      List.iter
        (fun site ->
          if not (List.mem site ports) then
            fail "site %d is not a daemon port" site)
        tree.Obs.Trace.a_sites;
      (* Passed: remove the run's directory of logs and dumps (a failing
         run exits above and keeps it). *)
      ignore
        (Sys.command ("rm -rf " ^ Filename.quote (Harness.Cluster.dir cluster)));
      Printf.printf
        "scrape: OK — trace %d crossed %d daemons (%s), %d hop events\n%!" id
        (List.length tree.Obs.Trace.a_sites)
        (String.concat ","
           (List.map string_of_int tree.Obs.Trace.a_sites))
        (List.length tree.Obs.Trace.a_events)
