(* Tests for Transport.Dynamic: i3 servers forwarding from their own live
   Chord.Protocol state — the paper's actual prototype architecture
   (Sec. V-C), with self-organization (Sec. IV-D), incremental deployment
   (Sec. IV-H) and failure recovery (Sec. IV-C) all emergent rather than
   oracle-driven. *)

(* Private registry per deployment: parallel test binaries must not
   share Obs.Metrics.default. *)
let build ?(seed = 5) ?(n = 12) () =
  let d = Transport.Dynamic.create ~metrics:(Obs.Metrics.create ()) ~seed () in
  for _ = 1 to n do
    ignore (Transport.Dynamic.add_server d ());
    Transport.Dynamic.run_for d 3_000.
  done;
  Transport.Dynamic.run_for d 120_000.;
  d

let collect host =
  let log = ref [] in
  Transport.Host.on_receive host (fun ~stack:_ ~payload -> log := payload :: !log);
  fun () -> List.rev !log

let test_single_owner_invariant () =
  let d = build () in
  let rng = Rng.create 11L in
  for _ = 1 to 60 do
    let id = Id.random rng in
    Alcotest.(check int) "exactly one owner" 1
      (List.length (Transport.Dynamic.owners_of d id))
  done

let test_rendezvous () =
  let d = build ~seed:6 () in
  let recv = Transport.Dynamic.new_host d () in
  let send = Transport.Dynamic.new_host d () in
  let got = collect recv in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Dynamic.run_for d 2_000.;
  Transport.Host.send send id "hello";
  Transport.Dynamic.run_for d 2_000.;
  Alcotest.(check (list string)) "delivered" [ "hello" ] (got ())

let test_sender_cache_over_dynamic_ring () =
  let d = build ~seed:7 () in
  let recv = Transport.Dynamic.new_host d () in
  let send = Transport.Dynamic.new_host d () in
  let (_ : unit -> string list) = collect recv in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Dynamic.run_for d 2_000.;
  Transport.Host.send send id "warm";
  Transport.Dynamic.run_for d 2_000.;
  (match
     (Transport.Host.cached_server_for send id, Transport.Dynamic.owners_of d id)
   with
  | Some cached, [ owner ] ->
      Alcotest.(check int) "cached the live owner" (I3.Server.addr owner) cached
  | None, _ -> Alcotest.fail "no cache entry"
  | Some _, owners ->
      Alcotest.fail (Printf.sprintf "%d owners" (List.length owners)));
  let forwarded () =
    List.fold_left
      (fun acc s ->
        acc
        + Obs.Metrics.sum_counters (Transport.Dynamic.metrics d)
            ~labels:[ ("instance", I3.Server.instance_label s) ]
            "i3.data_forwarded")
      0 (Transport.Dynamic.servers d)
  in
  let before = forwarded () in
  Transport.Host.send send id "direct";
  Transport.Dynamic.run_for d 2_000.;
  Alcotest.(check int) "direct hit, no overlay hops" before (forwarded ())

let test_failure_heals_and_recovers () =
  let d = build ~seed:8 () in
  let recv = Transport.Dynamic.new_host d () in
  let send = Transport.Dynamic.new_host d () in
  let got = collect recv in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Dynamic.run_for d 2_000.;
  (match Transport.Dynamic.owners_of d id with
  | [ owner ] -> Transport.Dynamic.kill_server d owner
  | l -> Alcotest.fail (Printf.sprintf "%d owners before kill" (List.length l)));
  (* suspicion timeouts fire, the ring heals, host refresh re-inserts *)
  Transport.Dynamic.run_for d 100_000.;
  Alcotest.(check int) "single owner again" 1
    (List.length (Transport.Dynamic.owners_of d id));
  Transport.Host.send send id "recovered";
  Transport.Dynamic.run_for d 3_000.;
  Alcotest.(check (list string)) "traffic resumes" [ "recovered" ] (got ())

let test_incremental_join_takes_over_arc () =
  let d = build ~seed:9 ~n:8 () in
  let recv = Transport.Dynamic.new_host d () in
  let got = collect recv in
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Dynamic.run_for d 2_000.;
  let owner_before =
    match Transport.Dynamic.owners_of d id with
    | [ o ] -> o
    | _ -> Alcotest.fail "expected one owner"
  in
  (* grow the ring; after convergence + a refresh the trigger lives at
     whoever now owns the arc, and traffic still flows *)
  let newcomers = List.init 6 (fun _ -> Transport.Dynamic.add_server d ()) in
  Transport.Dynamic.run_for d 160_000.;
  let owner_after =
    match Transport.Dynamic.owners_of d id with
    | [ o ] -> o
    | l -> Alcotest.fail (Printf.sprintf "%d owners after joins" (List.length l))
  in
  Alcotest.(check bool) "trigger stored at the current owner" true
    (I3.Trigger_table.find_matches
       (I3.Server.triggers owner_after)
       ~now:(Transport.Dynamic.now d) id
    <> []);
  let send = Transport.Dynamic.new_host d () in
  Transport.Host.send send id "post-join";
  Transport.Dynamic.run_for d 3_000.;
  Alcotest.(check (list string)) "delivered" [ "post-join" ] (got ());
  ignore owner_before;
  ignore newcomers

let test_multicast_over_dynamic_ring () =
  let d = build ~seed:10 () in
  let members = List.init 4 (fun _ -> Transport.Dynamic.new_host d ()) in
  let logs = List.map collect members in
  let send = Transport.Dynamic.new_host d () in
  let g = Id.random (Rng.create 3L) in
  List.iter (fun m -> Transport.Host.insert_trigger m g) members;
  Transport.Dynamic.run_for d 2_000.;
  Transport.Host.send send g "fanout";
  Transport.Dynamic.run_for d 2_000.;
  List.iter
    (fun log -> Alcotest.(check (list string)) "member got it" [ "fanout" ] (log ()))
    logs

let test_concurrent_joins_converge () =
  let d =
    Transport.Dynamic.create ~metrics:(Obs.Metrics.create ()) ~seed:12 ()
  in
  ignore (Transport.Dynamic.add_server d ());
  Transport.Dynamic.run_for d 1_000.;
  (* nine servers join in the same instant *)
  for _ = 1 to 9 do
    ignore (Transport.Dynamic.add_server d ())
  done;
  Transport.Dynamic.run_for d 300_000.;
  let rng = Rng.create 4L in
  let all_single = ref true in
  for _ = 1 to 40 do
    if List.length (Transport.Dynamic.owners_of d (Id.random rng)) <> 1 then
      all_single := false
  done;
  Alcotest.(check bool) "responsibility partitioned" true !all_single

(* A joiner whose contacts die before answering must still find the
   ring: a member left alone would claim the whole id space beside the
   real ring.  Here every member but one dies at the instant of the
   join. *)
let test_join_survives_dead_contacts () =
  let d = build ~seed:15 ~n:4 () in
  let newcomer = Transport.Dynamic.add_server d () in
  List.iter
    (fun i ->
      Transport.Dynamic.kill_server d (Transport.Dynamic.nth_server d i))
    [ 0; 1; 2 ];
  Transport.Dynamic.run_for d 120_000.;
  Alcotest.(check int) "two live members" 2
    (List.length (Transport.Dynamic.servers d));
  let rng = Rng.create 5L in
  let owned_by_newcomer = ref 0 in
  for _ = 1 to 40 do
    match Transport.Dynamic.owners_of d (Id.random rng) with
    | [ o ] -> if o == newcomer then incr owned_by_newcomer
    | l -> Alcotest.failf "%d owners" (List.length l)
  done;
  Alcotest.(check bool) "the newcomer owns an arc, not everything" true
    (!owned_by_newcomer > 0 && !owned_by_newcomer < 40)

(* Server.kill removes every series carrying the member's [instance]
   label, and the engine's own [engine.*] series carry that label too: a
   restarted member must come back observable on both, counting live. *)
let test_restart_keeps_member_observable () =
  let metrics = Obs.Metrics.create () in
  let d = Transport.Dynamic.create ~metrics ~seed:13 () in
  for _ = 1 to 4 do
    ignore (Transport.Dynamic.add_server d ());
    Transport.Dynamic.run_for d 2_000.
  done;
  Transport.Dynamic.run_for d 20_000.;
  let series server =
    let inst = ("instance", I3.Server.instance_label server) in
    List.filter
      (fun (s : Obs.Metrics.sample) -> List.mem inst s.labels)
      (Obs.Metrics.snapshot metrics)
  in
  let has prefix server =
    List.exists
      (fun (s : Obs.Metrics.sample) -> String.starts_with ~prefix s.name)
      (series server)
  in
  let victim = Transport.Dynamic.nth_server d 2 in
  Alcotest.(check bool) "i3.* before kill" true (has "i3." victim);
  Alcotest.(check bool) "engine.* before kill" true (has "engine." victim);
  Transport.Dynamic.kill_server d victim;
  Transport.Dynamic.run_for d 5_000.;
  Alcotest.(check int) "a dead member exports nothing" 0
    (List.length (series victim));
  Transport.Dynamic.restart_server d victim;
  Transport.Dynamic.run_for d 5_000.;
  let revived = Transport.Dynamic.nth_server d 2 in
  Alcotest.(check int) "same address" (I3.Server.addr victim)
    (I3.Server.addr revived);
  Alcotest.(check bool) "i3.* after restart" true (has "i3." revived);
  Alcotest.(check bool) "engine.* after restart" true (has "engine." revived);
  let events =
    List.find_map
      (fun (s : Obs.Metrics.sample) ->
        match s.value with
        | Obs.Metrics.Counter n when s.name = "engine.events" -> Some n
        | _ -> None)
      (series revived)
  in
  Alcotest.(check bool) "the revived engine counts its steps" true
    (match events with Some n -> n > 0 | None -> false)

(* Every member runs a [Transport.Driver] labeled with its server's
   [instance]: a kill takes the driver's series with the server's, and
   a restart brings a driver that counts under the new label. *)
let test_dead_member_leaves_no_driver_series () =
  let metrics = Obs.Metrics.create () in
  let d = Transport.Dynamic.create ~metrics ~seed:15 () in
  for _ = 1 to 4 do
    ignore (Transport.Dynamic.add_server d ());
    Transport.Dynamic.run_for d 2_000.
  done;
  Transport.Dynamic.run_for d 10_000.;
  let driver_series server =
    let inst = ("instance", I3.Server.instance_label server) in
    List.filter
      (fun (s : Obs.Metrics.sample) -> List.mem inst s.labels)
      (Obs.Metrics.snapshot ~prefix:"driver." metrics)
  in
  let victim = Transport.Dynamic.nth_server d 1 in
  Alcotest.(check bool) "driver.* before kill" true
    (driver_series victim <> []);
  Transport.Dynamic.kill_server d victim;
  Transport.Dynamic.run_for d 5_000.;
  Alcotest.(check int) "no driver.* series for the dead member" 0
    (List.length (driver_series victim));
  Transport.Dynamic.restart_server d victim;
  Transport.Dynamic.run_for d 5_000.;
  let revived = Transport.Dynamic.nth_server d 1 in
  Alcotest.(check bool) "a new instance label" true
    (I3.Server.instance_label revived <> I3.Server.instance_label victim);
  Alcotest.(check bool) "driver.* under the new label" true
    (List.exists
       (fun (s : Obs.Metrics.sample) ->
         match s.value with
         | Obs.Metrics.Counter n -> s.name = "driver.frames" && n > 0
         | _ -> false)
       (driver_series revived));
  Alcotest.(check int) "still none under the old label" 0
    (List.length (driver_series victim))

(* A frame only a dead member failed to decode stays counted: the kill
   removes the member's driver series, but not its decode errors.  Both
   substrates build their members from one core, so both keep them;
   [start] returns the net, the victim, its kill and the clock. *)
let test_dead_member_keeps_decode_errors start () =
  let metrics = Obs.Metrics.create () in
  let net, victim, kill, run_for = start metrics in
  let decode_errors () =
    List.fold_left
      (fun acc (s : Obs.Metrics.sample) ->
        match s.value with
        | Obs.Metrics.Counter n when s.name = "wire.decode_errors" -> acc + n
        | _ -> acc)
      0
      (Obs.Metrics.snapshot ~prefix:"wire.decode_errors" metrics)
  in
  let src = Net.register net ~site:0 (fun ~src:_ _ -> ()) in
  Net.send net ~src ~dst:(I3.Server.addr victim) "not a frame";
  run_for 100.;
  Alcotest.(check int) "the victim counted the corrupt frame" 1
    (decode_errors ());
  kill ();
  run_for 5_000.;
  Alcotest.(check int) "still counted after the kill" 1 (decode_errors ())

let dynamic_victim metrics =
  let d = Transport.Dynamic.create ~metrics ~seed:16 () in
  for _ = 1 to 3 do
    ignore (Transport.Dynamic.add_server d ());
    Transport.Dynamic.run_for d 2_000.
  done;
  let victim = Transport.Dynamic.nth_server d 1 in
  ( Transport.Dynamic.net d,
    victim,
    (fun () -> Transport.Dynamic.kill_server d victim),
    Transport.Dynamic.run_for d )

let deployment_victim metrics =
  let d = Transport.Deployment.create ~metrics ~seed:16 ~n_servers:3 () in
  ( Transport.Deployment.net d,
    Transport.Deployment.server d 1,
    (fun () -> Transport.Deployment.kill_server d 1),
    Transport.Deployment.run_for d )

(* A member added at virtual time T starts its stabilize, fix-finger and
   sweep timers at T.  Replaying every period since 0 would burst
   thousands of fix-finger lookups into its first step, stamped with
   times before it existed. *)
let test_late_join_starts_timers_now () =
  let metrics = Obs.Metrics.create () in
  let spans = Obs.Trace.create ~capacity:(1 lsl 16) () in
  let d = Transport.Dynamic.create ~metrics ~spans ~seed:14 () in
  ignore (Transport.Dynamic.add_server d ());
  Transport.Dynamic.run_for d 60_000.;
  let lookups () =
    List.fold_left
      (fun acc (s : Obs.Metrics.sample) ->
        match s.value with
        | Obs.Metrics.Counter n when s.name = "chord.lookups" -> acc + n
        | _ -> acc)
      0
      (Obs.Metrics.snapshot ~prefix:"chord.lookups" metrics)
  in
  let joined_at = Transport.Dynamic.now d in
  let before = lookups () in
  Obs.Trace.reset spans;
  ignore (Transport.Dynamic.add_server d ());
  Alcotest.(check int) "no fix-finger round replayed at join" before
    (lookups ());
  let period = 2_000. (* the default fast stabilize period *) in
  Transport.Dynamic.run_for d period;
  let events = Obs.Trace.events spans in
  let opened = Hashtbl.create 64 in
  let fresh =
    List.filter
      (fun (e : Obs.Trace.event) ->
        match e.kind with
        | Obs.Trace.Op { op; _ } ->
            Hashtbl.replace opened e.trace (op, e.time);
            false
        | Obs.Trace.Done _ -> true
        | _ -> false)
      events
  in
  Alcotest.(check bool) "timers ran after the join" true (fresh <> []);
  (* A finished operation whose opening was cleared by the reset started
     before the join. *)
  List.iter
    (fun (e : Obs.Trace.event) ->
      let op, start_time =
        Option.value ~default:("?", neg_infinity)
          (Hashtbl.find_opt opened e.trace)
      in
      if start_time < joined_at then
        Alcotest.failf "%s span started at %.0f, before the join at %.0f"
          op start_time joined_at)
    fresh;
  Alcotest.(check bool) "fix-finger lookups started within one period" true
    (Obs.Trace.durations_ms ~op:"chord.lookup" spans <> [||]);
  Alcotest.(check bool) "stabilize rounds started within one period" true
    (Obs.Trace.durations_ms ~op:"chord.stabilize" spans <> [||])

let () =
  Alcotest.run "i3-dynamic"
    [
      ( "decentralized i3",
        [
          Alcotest.test_case "single-owner invariant" `Slow test_single_owner_invariant;
          Alcotest.test_case "rendezvous" `Slow test_rendezvous;
          Alcotest.test_case "sender cache" `Slow test_sender_cache_over_dynamic_ring;
          Alcotest.test_case "failure heals + recovers" `Slow test_failure_heals_and_recovers;
          Alcotest.test_case "incremental join" `Slow test_incremental_join_takes_over_arc;
          Alcotest.test_case "multicast" `Slow test_multicast_over_dynamic_ring;
          Alcotest.test_case "concurrent joins" `Slow test_concurrent_joins_converge;
          Alcotest.test_case "join survives dead contacts" `Quick
            test_join_survives_dead_contacts;
          Alcotest.test_case "restart keeps member observable" `Quick
            test_restart_keeps_member_observable;
          Alcotest.test_case "dead member leaves no driver series" `Quick
            test_dead_member_leaves_no_driver_series;
          Alcotest.test_case "dead member keeps decode errors" `Quick
            (test_dead_member_keeps_decode_errors dynamic_victim);
          Alcotest.test_case "dead deployment member keeps decode errors"
            `Quick
            (test_dead_member_keeps_decode_errors deployment_victim);
          Alcotest.test_case "late join starts timers now" `Quick
            test_late_join_starts_timers_now;
        ] );
    ]
