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

(* --- many peers: every source and destination address is right ---

   Named for the 64-slot sockaddr memo the receive path once kept; the
   stub now packs each source in C, and these still pin that every
   datagram carries its own sender's address. *)

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
         the [src] it was handed against that name. *)
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

let sockaddr_of_addr a =
  Unix.ADDR_INET
    ( Unix.inet_addr_of_string
        (Transport.Udp.string_of_ip (Transport.Udp.ip_of a)),
      Transport.Udp.port_of a )

let test_sockaddr_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500
       ~name:"addr_of_sockaddr inverts sockaddr_of_addr"
       QCheck2.Gen.(pair (int_range 0 0xffffffff) (int_range 0 0xffff))
       (fun (ip, port) ->
         let a = Transport.Udp.pack ~ip ~port in
         Transport.Udp.addr_of_sockaddr (sockaddr_of_addr a) = Some a))

(* --- Faulty: fake lower + fake clock harness --- *)

let fake_faulty ?(metrics = Obs.Metrics.create ()) ?(seed = 7) ?(local = 1) ()
    =
  let sent = ref [] in
  let now = ref 0. in
  let lower =
    {
      Transport.Faulty.send = (fun ~dst bytes -> sent := (dst, bytes) :: !sent);
      local_addr = local;
    }
  in
  let f =
    Transport.Faulty.create ~metrics
      ~clock:(fun () -> !now)
      ~rng:(Rng.of_int seed) lower
  in
  (f, sent, now)

let delivered sent = List.length !sent

(* [faulty.dropped{cause}] of the decorator at [local]. *)
let dropped ?(local = 1) metrics cause =
  let labels =
    [ ("instance", "faulty" ^ string_of_int local); ("cause", cause) ]
  in
  match Obs.Metrics.find metrics ~labels "faulty.dropped" with
  | Some (Obs.Metrics.Counter n) -> n
  | _ -> 0

let test_faulty_loss_extremes () =
  let metrics = Obs.Metrics.create () in
  let f, sent, _ = fake_faulty ~metrics () in
  Transport.Faulty.apply f (Faults.Loss 1.);
  for _ = 1 to 50 do Transport.Faulty.send f ~dst:2 "x" done;
  Alcotest.(check int) "blackhole drops all" 0 (delivered sent);
  Alcotest.(check int) "all counted as loss" 50 (dropped metrics "loss");
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
  let metrics = Obs.Metrics.create () in
  let f, sent, _ = fake_faulty ~metrics ~local:1 () in
  Transport.Faulty.apply f (Faults.Partition [ 1 ]);
  Transport.Faulty.send f ~dst:2 "cut";
  Alcotest.(check int) "cut severs local from dst" 0 (delivered sent);
  Alcotest.(check int) "counted as partition" 1 (dropped metrics "partition");
  (* Same-side endpoints are untouched. *)
  Transport.Faulty.apply f Faults.Heal;
  Transport.Faulty.apply f (Faults.Partition [ 1; 2 ]);
  Transport.Faulty.send f ~dst:2 "same-side";
  Alcotest.(check int) "same side passes" 1 (delivered sent);
  Transport.Faulty.apply f Faults.Heal;
  Transport.Faulty.send f ~dst:7 "healed";
  Alcotest.(check int) "heal restores" 2 (delivered sent)

let test_faulty_gray () =
  let metrics = Obs.Metrics.create () in
  let f, sent, _ = fake_faulty ~metrics ~local:1 () in
  Transport.Faulty.apply f (Faults.Gray { from_site = 1; to_site = 2 });
  Transport.Faulty.send f ~dst:2 "gray";
  Alcotest.(check int) "gray drops from->to" 0 (delivered sent);
  Alcotest.(check int) "counted as gray" 1 (dropped metrics "gray");
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

let test_faulty_burst () =
  (* Always-bad Gilbert-Elliott channel with loss_bad = 1 drops
     everything; Burst_end restores. *)
  let metrics = Obs.Metrics.create () in
  let f, sent, _ = fake_faulty ~metrics () in
  Transport.Faulty.apply f
    (Faults.Burst_loss { p_enter = 1.; p_exit = 0.; loss_bad = 1. });
  for _ = 1 to 30 do Transport.Faulty.send f ~dst:2 "x" done;
  Alcotest.(check int) "bad state eats all" 0 (delivered sent);
  Alcotest.(check int) "counted as burst" 30 (dropped metrics "burst");
  Alcotest.(check int) "no other cause" 0
    (dropped metrics "loss" + dropped metrics "partition"
    + dropped metrics "gray");
  Transport.Faulty.apply f Faults.Burst_end;
  Transport.Faulty.send f ~dst:2 "x";
  Alcotest.(check int) "burst end restores" 1 (delivered sent)

let test_faulty_rejects_non_finite () =
  (* A NaN delay would park its datagram at the head of the due-time
     heap forever, so [flush] would release nothing behind it; a NaN
     probability would never drop.  Non-finite parameters are refused,
     and the decorator keeps its previous settings. *)
  let f, sent, now = fake_faulty () in
  List.iter
    (fun e ->
      match Transport.Faulty.apply f e with
      | () -> Alcotest.failf "accepted %a" Faults.pp_event e
      | exception Invalid_argument _ -> ())
    Faults.
      [
        Latency_spike Float.nan;
        Latency_spike Float.infinity;
        Jitter Float.nan;
        Jitter Float.infinity;
        Loss Float.nan;
        Duplicate Float.nan;
        Burst_loss { p_enter = Float.nan; p_exit = 0.5; loss_bad = 1. };
      ];
  Transport.Faulty.send f ~dst:2 "a";
  Transport.Faulty.apply f (Faults.Latency_spike 5.);
  Transport.Faulty.send f ~dst:2 "b";
  now := 1_000.;
  Alcotest.(check int) "the delayed datagram leaves" 1
    (Transport.Faulty.flush f);
  Alcotest.(check int) "nothing stuck" 0 (Transport.Faulty.pending f);
  Alcotest.(check int) "both sent" 2 (delivered sent)

(* --- sim/wire parity: one seeded fault interpreter at two boundaries --- *)

(* Sites are packed addresses, as on the wire; the sender is the first. *)
let parity_sites =
  Array.init 4 (fun i -> Transport.Udp.pack ~ip:0x7f000001 ~port:(9000 + i))

type parity_step = Event of Faults.event | Send of int  (* dst site index *)

type parity_outcome = Dropped of string | Copies of float list

let gen_parity_steps =
  let open QCheck2.Gen in
  let site = map (Array.get parity_sites) (int_bound 3) in
  let prob = oneof [ return 0.; return 1.; float_bound_inclusive 1. ] in
  let ms = oneof [ return 0.; float_bound_inclusive 20. ] in
  let event =
    oneof
      [
        map (fun l -> Faults.Partition l) (list_size (int_range 1 3) site);
        return Faults.Heal;
        map2 (fun from_site to_site -> Faults.Gray { from_site; to_site }) site site;
        map2
          (fun from_site to_site -> Faults.Gray_heal { from_site; to_site })
          site site;
        map3
          (fun p_enter p_exit loss_bad ->
            Faults.Burst_loss { p_enter; p_exit; loss_bad })
          prob prob prob;
        return Faults.Burst_end;
        map (fun p -> Faults.Loss p) prob;
        map (fun p -> Faults.Duplicate p) prob;
        map (fun ms -> Faults.Jitter ms) ms;
        map (fun ms -> Faults.Latency_spike ms) ms;
      ]
  in
  list_size (int_range 1 80)
    (frequency [ (1, map (fun e -> Event e) event); (3, map (fun i -> Send i) (int_bound 3)) ])

let parity_latency = 10.

let add_copy outcomes i extra =
  let prev =
    match Hashtbl.find_opt outcomes i with Some (Copies l) -> l | _ -> []
  in
  Hashtbl.replace outcomes i (Copies (extra :: prev))

(* Every send happens at virtual time 0, so a copy's extra delay is its
   arrival time minus the constant latency. *)
let run_parity_net seed steps =
  let engine = Engine.create () in
  let net =
    Net.create ~metrics:(Obs.Metrics.create ()) engine ~rng:(Rng.of_int seed)
      ~latency:(fun _ _ -> parity_latency) ()
  in
  let sender = Transport.Sim.attach net ~site:parity_sites.(0) in
  let receivers =
    Array.map (fun site -> Transport.Sim.attach net ~site) parity_sites
  in
  let outcomes = Hashtbl.create 64 in
  Net.set_observer net (fun ~src:_ ~dst:_ msg -> function
    | `Drop cause -> Hashtbl.replace outcomes (int_of_string msg) (Dropped cause)
    | `Enqueue -> ());
  Array.iter
    (fun r ->
      Transport.Sim.set_handler r (fun ~src:_ msg ->
          add_copy outcomes (int_of_string msg)
            (Engine.now engine -. parity_latency)))
    receivers;
  List.iteri
    (fun i -> function
      | Event e -> Net.apply net e
      | Send d ->
          Transport.Sim.send sender
            ~dst:(Transport.Sim.local_addr receivers.(d))
            (string_of_int i))
    steps;
  Engine.run engine;
  outcomes

(* The fake clock stays at 0 while sending, so a parked copy falls due
   at exactly its extra delay.  The clock then visits every delay the
   simulator saw, from just below to just above, and a copy is credited
   with a delay only if it leaves inside that window. *)
let run_parity_wire ~tol ~delays seed steps =
  let metrics = Obs.Metrics.create () in
  let local = parity_sites.(0) in
  let f, sent, now = fake_faulty ~metrics ~seed ~local () in
  let outcomes = Hashtbl.create 64 in
  let released extra =
    List.iter (fun (_, msg) -> add_copy outcomes (int_of_string msg) extra) !sent;
    sent := []
  in
  let causes = [ "partition"; "gray"; "burst"; "loss" ] in
  List.iteri
    (fun i -> function
      | Event e -> Transport.Faulty.apply f e
      | Send d ->
          let before = List.map (dropped ~local metrics) causes in
          Transport.Faulty.send f ~dst:parity_sites.(d) (string_of_int i);
          List.iter2
            (fun cause n ->
              if dropped ~local metrics cause > n then
                Hashtbl.replace outcomes i (Dropped cause))
            causes before;
          released 0.)
    steps;
  List.iter
    (fun d ->
      now := d -. tol;
      ignore (Transport.Faulty.flush f);
      released Float.nan;
      now := d +. tol;
      ignore (Transport.Faulty.flush f);
      released d)
    delays;
  now := Float.infinity;
  ignore (Transport.Faulty.flush f);
  released Float.infinity;
  outcomes

let test_sim_wire_parity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"one seed gives Net and Faulty the same per-send fates"
       ~print:(fun (seed, steps) ->
         Format.asprintf "seed %d:@ %a" seed
           (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun ppf ->
                function
                | Event e -> Faults.pp_event ppf e
                | Send d -> Format.fprintf ppf "send->%d" d))
           steps)
       QCheck2.Gen.(pair (int_bound 10_000) gen_parity_steps)
       (fun (seed, steps) ->
         let tol = 1e-9 in
         let sim = run_parity_net seed steps in
         let delays =
           Hashtbl.fold
             (fun _ o acc ->
               match o with
               | Copies l -> List.filter (fun d -> d > 0.) l @ acc
               | Dropped _ -> acc)
             sim []
           |> List.sort_uniq Float.compare
         in
         let wire = run_parity_wire ~tol ~delays seed steps in
         let same a b =
           match (a, b) with
           | Some (Dropped x), Some (Dropped y) -> x = y
           | Some (Copies x), Some (Copies y) ->
               let x = List.sort Float.compare x
               and y = List.sort Float.compare y in
               List.length x = List.length y
               && List.for_all2 (fun a b -> Float.abs (a -. b) <= tol) x y
           | _ -> false
         in
         List.for_all Fun.id
           (List.mapi
              (fun i step ->
                match step with
                | Event _ -> true
                | Send _ ->
                    same (Hashtbl.find_opt sim i) (Hashtbl.find_opt wire i)
                    || QCheck2.Test.fail_reportf "send %d: sim and wire differ" i)
              steps)))

(* --- send_many: one syscall per batch --- *)

(* Datagrams [rx] has received, oldest first, as (src, bytes). *)
let collect rx =
  let got = ref [] in
  Transport.Udp.set_handler rx (fun ~src bytes -> got := (src, bytes) :: !got);
  fun () -> List.rev !got

let test_send_many_mixed () =
  match open_sockets 4 with
  | None -> ()
  | Some (tx :: receivers) ->
      let inboxes = List.map (fun rx -> (rx, collect rx)) receivers in
      (* Interleaved destinations: each receiver must see its own
         datagrams, in the order they stood in the list. *)
      let datagrams =
        List.init 30 (fun i ->
            let rx = List.nth receivers (i mod 3) in
            (Transport.Udp.local_addr rx, string_of_int i))
      in
      Transport.Udp.send_many tx datagrams;
      List.iteri
        (fun k (rx, got) ->
          drain_until rx (fun () -> List.length (got ()) >= 10);
          Alcotest.(check (list (pair int string)))
            (Printf.sprintf "receiver %d: its datagrams, in list order" k)
            (List.filter_map
               (fun (dst, bytes) ->
                 if dst = Transport.Udp.local_addr rx then
                   Some (Transport.Udp.local_addr tx, bytes)
                 else None)
               datagrams)
            (got ()))
        inboxes;
      List.iter Transport.Udp.close (tx :: receivers)
  | Some [] -> assert false

let test_send_many_beyond_cap () =
  match open_sockets 2 with
  | Some [ tx; rx ] ->
      let got = collect rx in
      (* Three times the stub's 64-datagram cap, plus a remainder. *)
      let n = 200 in
      let payloads = List.init n string_of_int in
      Transport.Udp.send_many tx
        (List.map (fun p -> (Transport.Udp.local_addr rx, p)) payloads);
      drain_until rx (fun () -> List.length (got ()) >= n);
      Alcotest.(check (list string)) "all of them, in order" payloads
        (List.map snd (got ()));
      List.iter Transport.Udp.close [ tx; rx ]
  | Some _ | None -> ()

let test_send_many_oversize () =
  match open_sockets 2 with
  | Some [ tx; rx ] ->
      let got = collect rx in
      let dst = Transport.Udp.local_addr rx in
      let over = String.make (Transport.Udp.max_datagram + 1) 'x' in
      Alcotest.check_raises "an oversized datagram refuses the batch"
        (Invalid_argument "Transport.Udp.send: datagram too large")
        (fun () ->
          Transport.Udp.send_many tx
            [ (dst, "before"); (dst, over); (dst, "after") ]);
      Unix.sleepf 0.05;
      Transport.Udp.poll rx ~now:0.;
      Alcotest.(check (list (pair int string))) "nothing was sent" [] (got ());
      List.iter Transport.Udp.close [ tx; rx ]
  | Some _ | None -> ()

let test_send_many_refused () =
  match (Transport.Udp.create (), Transport.Udp.create ()) with
  | exception Unix.Unix_error _ -> ()
  | tx, rx ->
      let got = collect rx in
      let dst = Transport.Udp.local_addr rx in
      let ip s = Option.get (Transport.Udp.ip_of_string s) in
      (* Port 0 (EINVAL) and broadcast without SO_BROADCAST (EACCES):
         addresses a peer can name in a frame, which the kernel will
         not send to. *)
      let port0 = Transport.Udp.pack ~ip:(ip "127.0.0.1") ~port:0 in
      let bcast = Transport.Udp.pack ~ip:(ip "255.255.255.255") ~port:9 in
      Transport.Udp.send_many tx
        [ (dst, "a"); (port0, "x"); (dst, "b"); (bcast, "y"); (dst, "c") ];
      drain_until rx (fun () -> List.length (got ()) >= 3);
      Alcotest.(check (list string)) "the good datagrams around them arrive"
        [ "a"; "b"; "c" ]
        (List.map snd (got ()));
      (* Every socket registers in the shared registry; this one's
         series carries its own ip:port. *)
      let mine =
        [
          ( "instance",
            Printf.sprintf "127.0.0.1:%d"
              (Transport.Udp.port_of (Transport.Udp.local_addr tx)) );
        ]
      in
      let refused =
        match
          List.filter
            (fun (s : Obs.Metrics.sample) -> s.labels = mine)
            (Obs.Metrics.snapshot ~prefix:"udp.send_refused"
               Obs.Metrics.default)
        with
        | [ { value = Obs.Metrics.Counter n; _ } ] -> n
        | _ -> Alcotest.fail "one udp.send_refused counter for the socket"
      in
      Alcotest.(check int) "both refusals counted" 2 refused;
      List.iter Transport.Udp.close [ tx; rx ];
      (* A closed socket is the caller's bug, not a refused destination. *)
      Alcotest.check_raises "a closed socket still raises"
        (Unix.Unix_error (Unix.EBADF, "sendmmsg", ""))
        (fun () -> Transport.Udp.send tx ~dst "late")

(* One datagram fills the socket's first send slot: [Udp.send] builds no
   list, tuple, array or closure, so a 16 B send allocates nothing on
   the minor heap (the bound leaves a word of headroom).  It is the load
   generator's per-packet path. *)
let test_send_allocation () =
  match open_sockets 2 with
  | Some [ tx; rx ] ->
      let dst = Transport.Udp.local_addr rx in
      let payload = String.make 16 'x' in
      let n = 10_000 in
      let before = Gc.minor_words () in
      for _ = 1 to n do
        Transport.Udp.send tx ~dst payload
      done;
      let w = (Gc.minor_words () -. before) /. float_of_int n in
      if w > 1. then
        Alcotest.failf "Udp.send: %.2f minor words per 16 B datagram > 1" w;
      List.iter Transport.Udp.close [ tx; rx ]
  | Some _ | None -> ()

(* --- end hosts: stray Pongs are dropped, corrupt datagrams dropped
   and counted --- *)

let counter metrics ~labels name =
  match Obs.Metrics.find metrics ~labels name with
  | Some (Obs.Metrics.Counter n) -> n
  | _ -> 0

(* The one host driver, on either transport: a Deliver frame truncated,
   then the same frame with its kind byte flipped to one no decoder
   knows, each counts once in [wire.decode_errors{instance, proto="i3"}]
   and reaches no application; the intact frame then does.  [inject]
   hands the host one datagram and returns once it is handled. *)
let check_host_drops_corrupt host ~inject ~metrics ~instance =
  let errors () =
    counter metrics ~labels:[ ("instance", instance); ("proto", "i3") ]
      "wire.decode_errors"
  in
  let delivered = ref 0 in
  Transport.Host.on_receive host (fun ~stack:_ ~payload:_ -> incr delivered);
  let frame =
    I3.Codec.encode
      (I3.Message.Deliver { stack = []; payload = "corrupt?"; trace = 0 })
  in
  let flipped = Bytes.of_string frame in
  Bytes.set flipped Wire.Layout.off_kind '\xff';
  let before = errors () in
  inject (String.sub frame 0 (String.length frame - 3));
  Alcotest.(check int) "truncated frame counted once" (before + 1) (errors ());
  inject (Bytes.to_string flipped);
  Alcotest.(check int) "flipped-kind frame counted once" (before + 2)
    (errors ());
  Alcotest.(check int) "neither reaches on_receive" 0 !delivered;
  inject frame;
  Alcotest.(check int) "the intact frame is delivered" 1 !delivered;
  Alcotest.(check int) "and not counted" (before + 2) (errors ())

let test_sim_host_drops_corrupt () =
  let metrics = Obs.Metrics.create () in
  let d = Transport.Deployment.create ~metrics ~n_servers:1 () in
  let host = Transport.Deployment.new_host d () in
  let net = Transport.Deployment.net d in
  let src = I3.Server.addr (Transport.Deployment.server d 0) in
  check_host_drops_corrupt host ~metrics ~instance:(Net.label net)
    ~inject:(fun bytes ->
      Net.send net ~src ~dst:(Transport.Host.addr host) bytes;
      Transport.Deployment.run_for d 100.)

let test_client_ignores_stray_pongs () =
  match (Transport.Udp.create (), Transport.Udp.create ()) with
  | exception Unix.Unix_error _ -> ()
  | a, b ->
      let metrics = Obs.Metrics.create () in
      let client =
        Transport.Client.create ~metrics ~rng:(Rng.split rng0)
          ~gateways:[ Transport.Udp.local_addr b ] a
      in
      let host = Transport.Client.host client in
      let errors () =
        counter metrics ~labels:[ ("instance", "client"); ("proto", "i3") ]
          "wire.decode_errors"
      in
      let delivered = ref 0 in
      Transport.Host.on_receive host (fun ~stack:_ ~payload:_ ->
          incr delivered);
      let marker =
        I3.Codec.encode
          (I3.Message.Deliver { stack = []; payload = "marker"; trace = 0 })
      in
      (* 1,000 Pongs nobody pinged for, in rounds small enough for the
         socket's receive buffer.  Each round ends with a Deliver frame
         from the same socket; loopback keeps the order, so once that
         frame is delivered every Pong before it has been handled. *)
      for round = 1 to 10 do
        for i = 1 to 100 do
          Transport.Udp.send b ~dst:(Transport.Host.addr host)
            (I3.Codec.encode
               (I3.Message.Pong
                  { nonce = (round * 1000) + i; server = 0; triggers = 0;
                    uptime_ms = 0. }))
        done;
        Transport.Udp.send b ~dst:(Transport.Host.addr host) marker;
        let deadline = Unix.gettimeofday () +. 2. in
        while !delivered < round && Unix.gettimeofday () < deadline do
          if Transport.Client.wait client ~timeout:0.05 then
            Transport.Client.poll client ~now:0.
        done
      done;
      Alcotest.(check int) "only the markers reach on_receive" 10 !delivered;
      Alcotest.(check int) "no stray Pong is a decode error" 0 (errors ());
      check_host_drops_corrupt host ~metrics ~instance:"client"
        ~inject:(fun bytes ->
          Transport.Udp.send b ~dst:(Transport.Host.addr host) bytes;
          if Transport.Client.wait client ~timeout:2. then
            Transport.Client.poll client ~now:0.);
      Transport.Udp.close a;
      Transport.Udp.close b

(* --- receive: one recvmmsg per slab of datagrams ---

   [poll] takes up to 16 datagrams per syscall into the socket's slab
   and copies each out before any handler runs. *)

(* Send [payloads] from [tx] to [rx], give loopback a moment to queue
   them all, then drain with exactly one [poll]. *)
let queue_then_poll tx rx payloads =
  Transport.Udp.send_many tx
    (List.map (fun p -> (Transport.Udp.local_addr rx, p)) payloads);
  Unix.sleepf 0.05;
  Transport.Udp.poll rx ~now:0.

let test_recv_max_between_small () =
  match open_sockets 2 with
  | Some [ tx; rx ] ->
      let got = collect rx in
      let big =
        String.init Transport.Udp.max_datagram (fun i -> Char.chr (i land 0xff))
      in
      let payloads = [ "before"; big; "after" ] in
      queue_then_poll tx rx payloads;
      Alcotest.(check (list int)) "lengths, in order"
        (List.map String.length payloads)
        (List.map (fun (_, b) -> String.length b) (got ()));
      Alcotest.(check bool) "every byte intact" true
        (List.for_all2 String.equal payloads (List.map snd (got ())));
      List.iter Transport.Udp.close [ tx; rx ]
  | Some _ | None -> ()

let test_recv_beyond_slab () =
  match open_sockets 2 with
  | Some [ tx; rx ] ->
      let got = collect rx in
      (* Three slabs of 16 datagrams, plus a remainder. *)
      let payloads = List.init ((3 * 16) + 5) string_of_int in
      queue_then_poll tx rx payloads;
      Alcotest.(check (list string)) "all of them from one poll, in order"
        payloads
        (List.map snd (got ()));
      List.iter Transport.Udp.close [ tx; rx ]
  | Some _ | None -> ()

(* The first handler call sends two more datagrams and polls again from
   inside the handler: that nested receive reuses the slab.  The first
   datagram's string, and the two still waiting in the outer batch, must
   keep their own bytes. *)
let test_recv_nested_poll () =
  match open_sockets 2 with
  | Some [ tx; rx ] ->
      let seen = ref [] and first = ref None in
      let dst = Transport.Udp.local_addr rx in
      Transport.Udp.set_handler rx (fun ~src:_ bytes ->
          seen := bytes :: !seen;
          if !first = None then begin
            first := Some bytes;
            Transport.Udp.send_many tx
              [ (dst, String.make 200 'd'); (dst, String.make 200 'e') ];
            Unix.sleepf 0.05;
            Transport.Udp.poll rx ~now:0.
          end);
      let a = String.make 200 'a' and b = String.make 200 'b' in
      let c = String.make 200 'c' in
      queue_then_poll tx rx [ a; b; c ];
      Alcotest.(check (option string)) "the first datagram kept its bytes"
        (Some a) !first;
      Alcotest.(check (list string)) "nested datagrams first, then the rest"
        [ a; String.make 200 'd'; String.make 200 'e'; b; c ]
        (List.rev !seen);
      List.iter Transport.Udp.close [ tx; rx ]
  | Some _ | None -> ()

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
      ( "send_many",
        [
          Alcotest.test_case "mixed list to several receivers, in order"
            `Quick test_send_many_mixed;
          Alcotest.test_case "beyond the batch cap, in order, none lost"
            `Quick test_send_many_beyond_cap;
          Alcotest.test_case "oversized datagram sends nothing" `Quick
            test_send_many_oversize;
          Alcotest.test_case "refused destinations skipped and counted"
            `Quick test_send_many_refused;
          Alcotest.test_case "a lone send allocates nothing" `Quick
            test_send_allocation;
        ] );
      ( "udp_receive",
        [
          Alcotest.test_case "maximal datagram between small ones, one poll"
            `Quick test_recv_max_between_small;
          Alcotest.test_case "beyond three slabs, one poll, in order" `Quick
            test_recv_beyond_slab;
          Alcotest.test_case "nested poll keeps the batch's bytes" `Quick
            test_recv_nested_poll;
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
          Alcotest.test_case "burst loss channel" `Quick test_faulty_burst;
          Alcotest.test_case "seeded replay is deterministic" `Quick
            test_faulty_deterministic;
          Alcotest.test_case "NaN and infinite parameters rejected" `Quick
            test_faulty_rejects_non_finite;
          test_sim_wire_parity;
        ] );
      ( "client",
        [
          Alcotest.test_case "stray Pongs dropped and counted" `Quick
            test_client_ignores_stray_pongs;
          Alcotest.test_case "sim host drops corrupt datagrams" `Quick
            test_sim_host_drops_corrupt;
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
