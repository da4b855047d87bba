(* Transport-layer robustness coverage: the uniform [wait]/[poll]
   conventions every transport now shares (blocking receive vs
   non-blocking maintenance), deterministic unit tests of the
   [Transport.Faulty] send-boundary decorator against a fake lower
   transport and a fake clock, and — where loopback sockets are allowed
   — a maximal-depth maximal-payload frame pushed through a real UDP
   socket to pin the receive path's bounds. *)

let rng0 = Rng.of_int 1812

(* --- poll/wait conventions --- *)

let test_udp_poll_drains () =
  match (Transport.Udp.create (), Transport.Udp.create ()) with
  | exception Unix.Unix_error _ -> ()
  | a, b ->
      let got = ref 0 in
      Transport.Udp.set_handler b (fun ~src:_ _ -> incr got);
      for i = 1 to 3 do
        Transport.Udp.send a ~dst:(Transport.Udp.local_addr b)
          (string_of_int i)
      done;
      (* [wait] blocks for the first arrival; [poll] then drains whatever
         else is queued without blocking. *)
      let deadline = Unix.gettimeofday () +. 2. in
      let rec go () =
        if !got < 3 && Unix.gettimeofday () < deadline then begin
          ignore (Transport.Udp.wait b ~timeout:0.1);
          Transport.Udp.poll b ~now:0.;
          go ()
        end
      in
      go ();
      Alcotest.(check int) "all datagrams drained" 3 !got;
      (* On an empty socket poll must return immediately. *)
      let t0 = Unix.gettimeofday () in
      Transport.Udp.poll b ~now:0.;
      Alcotest.(check bool) "poll never blocks" true
        (Unix.gettimeofday () -. t0 < 0.05);
      (* A queued burst: one poll dispatches all of it, in arrival
         order. *)
      let n = 40 in
      let seen = ref [] in
      Transport.Udp.set_handler b (fun ~src:_ s ->
          seen := int_of_string s :: !seen);
      for i = 1 to n do
        Transport.Udp.send a ~dst:(Transport.Udp.local_addr b)
          (string_of_int i)
      done;
      Unix.sleepf 0.05;
      Transport.Udp.poll b ~now:0.;
      Alcotest.(check (list int)) "one poll, arrival order"
        (List.init n (fun i -> i + 1))
        (List.rev !seen);
      Transport.Udp.close a;
      Transport.Udp.close b

(* --- address memo: more peers than memo slots --- *)

(* Comfortably more than the 64 memo slots, so slots collide and get
   overwritten between rounds. *)
let many_peers = 100

let open_sockets n =
  match List.init n (fun _ -> Transport.Udp.create ()) with
  | socks -> Some socks
  | exception Unix.Unix_error _ -> None

(* Drain [rx] until [want ()] or a 2 s deadline. *)
let drain_until rx want =
  let deadline = Unix.gettimeofday () +. 2. in
  while (not (want ())) && Unix.gettimeofday () < deadline do
    if Transport.Udp.wait rx ~timeout:0.05 then Transport.Udp.poll rx ~now:0.
  done

let test_udp_memo_many_sources () =
  match open_sockets (many_peers + 1) with
  | None -> ()
  | Some (rx :: senders) ->
      (* Each sender names itself in the payload; the receiver checks
         the [src] its memo resolved against that name. *)
      let got = ref 0 and wrong = ref 0 in
      Transport.Udp.set_handler rx (fun ~src bytes ->
          incr got;
          if src <> int_of_string bytes then incr wrong);
      let round senders =
        List.iter
          (fun s ->
            Transport.Udp.send s ~dst:(Transport.Udp.local_addr rx)
              (string_of_int (Transport.Udp.local_addr s)))
          senders
      in
      round senders;
      round (List.rev senders);
      round senders;
      drain_until rx (fun () -> !got >= 3 * many_peers);
      Alcotest.(check int) "every datagram arrived" (3 * many_peers) !got;
      Alcotest.(check int) "every src is the sender's address" 0 !wrong;
      List.iter Transport.Udp.close (rx :: senders)
  | Some [] -> assert false

let test_udp_memo_many_destinations () =
  match open_sockets (many_peers + 1) with
  | None -> ()
  | Some (tx :: receivers) ->
      let rxs = Array.of_list receivers in
      let got = Array.make many_peers [] in
      Array.iteri
        (fun i rx ->
          Transport.Udp.set_handler rx (fun ~src bytes ->
              Alcotest.(check int) "src is the sender"
                (Transport.Udp.local_addr tx) src;
              got.(i) <- int_of_string bytes :: got.(i)))
        rxs;
      let send_round order =
        List.iter
          (fun i ->
            Transport.Udp.send tx
              ~dst:(Transport.Udp.local_addr rxs.(i))
              (string_of_int i))
          order
      in
      let indices = List.init many_peers Fun.id in
      send_round indices;
      send_round (List.rev indices);
      Array.iteri
        (fun i rx -> drain_until rx (fun () -> List.length got.(i) >= 2))
        rxs;
      Array.iteri
        (fun i mine ->
          Alcotest.(check (list int))
            (Printf.sprintf "receiver %d got exactly its own datagrams" i)
            [ i; i ] mine)
        got;
      List.iter Transport.Udp.close (tx :: receivers)
  | Some [] -> assert false

let test_sockaddr_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500
       ~name:"addr_of_sockaddr inverts sockaddr_of_addr"
       QCheck2.Gen.(pair (int_range 0 0xffffffff) (int_range 0 0xffff))
       (fun (ip, port) ->
         let a = Transport.Udp.pack ~ip ~port in
         Transport.Udp.addr_of_sockaddr (Transport.Udp.sockaddr_of_addr a)
         = Some a))

(* --- Faulty: fake lower + fake clock harness --- *)

let fake_faulty ?(seed = 7) ?(local = 1) () =
  let sent = ref [] in
  let now = ref 0. in
  let lower =
    {
      Transport.Faulty.send = (fun ~dst bytes -> sent := (dst, bytes) :: !sent);
      set_handler = (fun _ -> ());
      local_addr = local;
    }
  in
  let f =
    Transport.Faulty.create
      ~metrics:(Obs.Metrics.create ())
      ~clock:(fun () -> !now)
      ~rng:(Rng.of_int seed) lower
  in
  (f, sent, now)

let delivered sent = List.length !sent

let test_faulty_loss_extremes () =
  let f, sent, _ = fake_faulty () in
  Transport.Faulty.apply f (Faults.Loss 1.);
  for _ = 1 to 50 do Transport.Faulty.send f ~dst:2 "x" done;
  Alcotest.(check int) "blackhole drops all" 0 (delivered sent);
  Transport.Faulty.apply f (Faults.Loss 0.);
  for _ = 1 to 50 do Transport.Faulty.send f ~dst:2 "x" done;
  Alcotest.(check int) "lossless delivers all" 50 (delivered sent)

let test_faulty_duplicate () =
  let f, sent, _ = fake_faulty () in
  Transport.Faulty.apply f (Faults.Duplicate 1.);
  for _ = 1 to 20 do Transport.Faulty.send f ~dst:9 "dup" done;
  Alcotest.(check int) "every datagram doubled" 40 (delivered sent)

let test_faulty_delay_flush () =
  let f, sent, now = fake_faulty () in
  Transport.Faulty.apply f (Faults.Latency_spike 50.);
  Transport.Faulty.send f ~dst:2 "a";
  Transport.Faulty.send f ~dst:2 "b";
  Alcotest.(check int) "parked, not sent" 0 (delivered sent);
  Alcotest.(check int) "pending" 2 (Transport.Faulty.pending f);
  now := 10.;
  Alcotest.(check int) "not yet due" 0 (Transport.Faulty.flush f);
  now := 60.;
  Alcotest.(check int) "released" 2 (Transport.Faulty.flush f);
  Alcotest.(check int) "delivered after due" 2 (delivered sent);
  (* FIFO for equal spikes: 'a' parked first leaves first. *)
  Alcotest.(check string) "order kept" "a" (snd (List.nth !sent 1))

let test_faulty_partition_heal () =
  let f, sent, _ = fake_faulty ~local:1 () in
  Transport.Faulty.apply f (Faults.Partition [ 1 ]);
  Transport.Faulty.send f ~dst:2 "cut";
  Alcotest.(check int) "cut severs local from dst" 0 (delivered sent);
  (* Same-side endpoints are untouched. *)
  Transport.Faulty.apply f Faults.Heal;
  Transport.Faulty.apply f (Faults.Partition [ 1; 2 ]);
  Transport.Faulty.send f ~dst:2 "same-side";
  Alcotest.(check int) "same side passes" 1 (delivered sent);
  Transport.Faulty.apply f Faults.Heal;
  Transport.Faulty.send f ~dst:7 "healed";
  Alcotest.(check int) "heal restores" 2 (delivered sent)

let test_faulty_gray () =
  let f, sent, _ = fake_faulty ~local:1 () in
  Transport.Faulty.apply f (Faults.Gray { from_site = 1; to_site = 2 });
  Transport.Faulty.send f ~dst:2 "gray";
  Alcotest.(check int) "gray drops from->to" 0 (delivered sent);
  Transport.Faulty.send f ~dst:3 "other";
  Alcotest.(check int) "other links live" 1 (delivered sent);
  Transport.Faulty.apply f (Faults.Gray_heal { from_site = 1; to_site = 2 });
  Transport.Faulty.send f ~dst:2 "healed";
  Alcotest.(check int) "gray heal restores" 2 (delivered sent)

let test_faulty_deterministic () =
  (* Same seed, same event stream, same sends => byte-identical fate
     pattern; that's what makes live chaos runs replayable. *)
  let run () =
    let f, sent, now = fake_faulty ~seed:99 () in
    Transport.Faulty.apply f (Faults.Loss 0.3);
    Transport.Faulty.apply f (Faults.Duplicate 0.2);
    Transport.Faulty.apply f (Faults.Jitter 5.);
    for i = 1 to 200 do
      Transport.Faulty.send f ~dst:(i mod 4) (string_of_int i)
    done;
    now := 1_000.;
    ignore (Transport.Faulty.flush f);
    List.rev !sent
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same count" (List.length a) (List.length b);
  List.iter2
    (fun (d1, b1) (d2, b2) ->
      Alcotest.(check int) "dst" d1 d2;
      Alcotest.(check string) "bytes" b1 b2)
    a b

let test_faulty_poll_releases () =
  (* [poll] is the uniform maintenance entry point: for Faulty it
     flushes parked datagrams that have come due on its *own* clock
     (the [~now] argument is deliberately ignored — the decorator's
     clock closure stays authoritative). *)
  let f, sent, now = fake_faulty () in
  Transport.Faulty.apply f (Faults.Latency_spike 50.);
  Transport.Faulty.send f ~dst:2 "a";
  Transport.Faulty.send f ~dst:2 "b";
  Transport.Faulty.poll f ~now:10_000.;
  Alcotest.(check int) "own clock rules, not ~now" 0 (delivered sent);
  now := 60.;
  Transport.Faulty.poll f ~now:0.;
  Alcotest.(check int) "due datagrams released" 2 (delivered sent)

let test_faulty_burst () =
  (* Always-bad Gilbert-Elliott channel with loss_bad = 1 drops
     everything; Burst_end restores. *)
  let f, sent, _ = fake_faulty () in
  Transport.Faulty.apply f
    (Faults.Burst_loss { p_enter = 1.; p_exit = 0.; loss_bad = 1. });
  for _ = 1 to 30 do Transport.Faulty.send f ~dst:2 "x" done;
  Alcotest.(check int) "bad state eats all" 0 (delivered sent);
  Transport.Faulty.apply f Faults.Burst_end;
  Transport.Faulty.send f ~dst:2 "x";
  Alcotest.(check int) "burst end restores" 1 (delivered sent)

(* --- Udp bounds: maximal legal frame over a real socket --- *)

let max_frame_message () =
  let stack = List.init I3.Packet.max_stack_depth (fun _ -> I3.Packet.Sid (Id.random rng0)) in
  let payload = String.init Wire.Layout.max_data_payload (fun i -> Char.chr (i land 0xff)) in
  I3.Message.Data (I3.Packet.make ~stack ~payload ())

let test_udp_max_frame () =
  match (Transport.Udp.create (), Transport.Udp.create ()) with
  | exception Unix.Unix_error _ ->
      (* Sandboxed environments without loopback sockets: satellite
         coverage degrades to the encode-side bound check below. *)
      ()
  | a, b ->
      let msg = max_frame_message () in
      let bytes = I3.Codec.encode msg in
      Alcotest.(check int) "maximal frame fills the datagram bound"
        Wire.Layout.max_datagram (String.length bytes);
      let got = ref None in
      Transport.Udp.set_handler b (fun ~src:_ data -> got := Some data);
      Transport.Udp.send a ~dst:(Transport.Udp.local_addr b) bytes;
      let rec wait n =
        if n = 0 then ()
        else if !got = None then begin
          ignore (Transport.Udp.wait b ~timeout:0.1);
          wait (n - 1)
        end
      in
      wait 20;
      (match !got with
      | None -> Alcotest.fail "maximal frame never arrived"
      | Some data ->
          Alcotest.(check int) "no truncation on receive"
            (String.length bytes) (String.length data);
          (match I3.Codec.decode data with
          | Ok m ->
              Alcotest.(check bool) "decodes back to the same frame" true
                (String.equal (I3.Codec.encode m) bytes)
          | Error e -> Alcotest.fail ("maximal frame must decode: " ^ e)));
      Transport.Udp.close a;
      Transport.Udp.close b

let test_udp_oversize_rejected () =
  match Transport.Udp.create () with
  | exception Unix.Unix_error _ -> ()
  | u ->
      let over = String.make (Transport.Udp.max_datagram + 1) 'x' in
      Alcotest.check_raises "oversize send is refused"
        (Invalid_argument "Transport.Udp.send: datagram too large")
        (fun () -> Transport.Udp.send u ~dst:(Transport.Udp.local_addr u) over);
      Transport.Udp.close u

(* A port already bound must not be silently shared: a second bind fails
   with EADDRINUSE instead of splitting the first socket's traffic. *)
let test_udp_port_taken () =
  match Transport.Udp.create () with
  | exception Unix.Unix_error _ -> ()
  | first ->
      let port = Transport.Udp.port_of (Transport.Udp.local_addr first) in
      (match Transport.Udp.create ~port () with
      | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ()
      | second ->
          Transport.Udp.close second;
          Alcotest.fail "second bind of a taken port succeeded");
      Transport.Udp.close first

let () =
  Alcotest.run "transport"
    [
      ( "conventions",
        [
          Alcotest.test_case "udp wait blocks, poll drains" `Quick
            test_udp_poll_drains;
        ] );
      ( "udp_memo",
        [
          Alcotest.test_case "more sources than memo slots" `Quick
            test_udp_memo_many_sources;
          Alcotest.test_case "more destinations than memo slots" `Quick
            test_udp_memo_many_destinations;
          test_sockaddr_roundtrip;
        ] );
      ( "faulty",
        [
          Alcotest.test_case "loss extremes" `Quick test_faulty_loss_extremes;
          Alcotest.test_case "duplicate" `Quick test_faulty_duplicate;
          Alcotest.test_case "delay parks until flush" `Quick
            test_faulty_delay_flush;
          Alcotest.test_case "partition cut + heal" `Quick
            test_faulty_partition_heal;
          Alcotest.test_case "gray link one-way" `Quick test_faulty_gray;
          Alcotest.test_case "poll releases due datagrams" `Quick
            test_faulty_poll_releases;
          Alcotest.test_case "burst loss channel" `Quick test_faulty_burst;
          Alcotest.test_case "seeded replay is deterministic" `Quick
            test_faulty_deterministic;
        ] );
      ( "udp_bounds",
        [
          Alcotest.test_case "maximal frame roundtrips" `Quick
            test_udp_max_frame;
          Alcotest.test_case "oversize send rejected" `Quick
            test_udp_oversize_rejected;
          Alcotest.test_case "taken port refuses a second bind" `Quick
            test_udp_port_taken;
        ] );
    ]
