(* Tests for lib/simnet: engine (virtual clock) and net (best-effort IP). *)

let feq = Alcotest.float 1e-9

(* --- Engine --- *)

let test_engine_time_starts_zero () =
  Alcotest.check feq "t=0" 0. (Engine.now (Engine.create ()))

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:30. (fun () -> log := 3 :: !log);
  Engine.schedule e ~delay:10. (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:20. (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.check feq "clock at last event" 30. (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:7. (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO for equal times" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~delay:5. (fun () ->
      fired := ("a", Engine.now e) :: !fired;
      Engine.schedule e ~delay:5. (fun () ->
          fired := ("b", Engine.now e) :: !fired));
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "nested event at t=10"
    [ ("a", 5.); ("b", 10.) ]
    (List.rev !fired)

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  let t = ref (-1.) in
  Engine.schedule e ~delay:(-5.) (fun () -> t := Engine.now e);
  Engine.run e;
  Alcotest.check feq "clamped to now" 0. !t

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~delay:10. (fun () -> incr fired);
  Engine.schedule e ~delay:20. (fun () -> incr fired);
  Engine.run_until e 15.;
  Alcotest.(check int) "only first" 1 !fired;
  Alcotest.check feq "clock advanced to limit" 15. (Engine.now e);
  Engine.run_until e 25.;
  Alcotest.(check int) "second fired" 2 !fired

let test_engine_run_for () =
  let e = Engine.create () in
  Engine.run_for e 100.;
  Alcotest.check feq "clock advances without events" 100. (Engine.now e)

let test_engine_periodic () =
  let e = Engine.create () in
  let count = ref 0 in
  let timer = Engine.every e ~period:10. (fun () -> incr count) in
  Engine.run_until e 55.;
  Alcotest.(check int) "5 ticks in 55ms (phase=10)" 5 !count;
  Engine.cancel timer;
  Engine.run_until e 200.;
  Alcotest.(check int) "no ticks after cancel" 5 !count

let test_engine_periodic_phase () =
  let e = Engine.create () in
  let first = ref (-1.) in
  let timer =
    Engine.every e ~phase:3. ~period:10. (fun () ->
        if !first < 0. then first := Engine.now e)
  in
  Engine.run_until e 30.;
  Engine.cancel timer;
  Alcotest.check feq "first tick at phase" 3. !first

let test_engine_bad_period () =
  let e = Engine.create () in
  Alcotest.check_raises "period 0"
    (Invalid_argument "Engine.every: period must be positive") (fun () ->
      ignore (Engine.every e ~period:0. (fun () -> ())))

let test_engine_step () =
  let e = Engine.create () in
  Alcotest.(check bool) "empty step" false (Engine.step e);
  Engine.schedule e ~delay:1. (fun () -> ());
  Alcotest.(check bool) "one step" true (Engine.step e);
  Alcotest.(check bool) "drained" false (Engine.step e)

(* --- Net --- *)

(* One of the net's counters, read from its registry by its instance
   label: [net.sent], [net.delivered], [net.duplicated]. *)
let count net name =
  Obs.Metrics.sum_counters (Net.metrics net)
    ~labels:[ ("instance", Net.label net) ]
    name

(* The net's [net.dropped] count for one cause. *)
let dropped net cause =
  Obs.Metrics.sum_counters (Net.metrics net)
    ~labels:[ ("instance", Net.label net); ("cause", cause) ]
    "net.dropped"

let mk_net ?(latency = fun _ _ -> 10.) () =
  let e = Engine.create () in
  let net = Net.create e ~rng:(Rng.create 1L) ~latency () in
  (e, net)

let test_net_delivery_latency () =
  let e, net = mk_net ~latency:(fun a b -> float_of_int (abs (a - b)) *. 5.) () in
  let got = ref [] in
  let a = Net.register net ~site:0 (fun ~src:_ _ -> ()) in
  let b = Net.register net ~site:4 (fun ~src m -> got := (src, m, Engine.now e) :: !got) in
  Net.send net ~src:a ~dst:b "hi";
  Engine.run e;
  match !got with
  | [ (src, m, t) ] ->
      Alcotest.(check int) "src" a src;
      Alcotest.(check string) "payload" "hi" m;
      Alcotest.check feq "latency 20ms" 20. t
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_net_self_send () =
  let e, net = mk_net () in
  let got = ref 0 in
  let a = Net.register net ~site:3 (fun ~src:_ _ -> incr got) in
  Net.send net ~src:a ~dst:a "loop";
  Engine.run e;
  Alcotest.(check int) "self delivery" 1 !got

let test_net_down_endpoint () =
  let e, net = mk_net () in
  let got = ref 0 in
  let a = Net.register net ~site:0 (fun ~src:_ _ -> ()) in
  let b = Net.register net ~site:1 (fun ~src:_ _ -> incr got) in
  Net.set_down net b;
  Net.send net ~src:a ~dst:b "x";
  Engine.run e;
  Alcotest.(check int) "not delivered" 0 !got;
  Net.set_up net b;
  Net.send net ~src:a ~dst:b "y";
  Engine.run e;
  Alcotest.(check int) "delivered after revive" 1 !got;
  Alcotest.(check int) "dropped_down" 1 (dropped net "down")

let test_net_down_sender () =
  let e, net = mk_net () in
  let got = ref 0 in
  let a = Net.register net ~site:0 (fun ~src:_ _ -> ()) in
  let b = Net.register net ~site:1 (fun ~src:_ _ -> incr got) in
  Net.set_down net a;
  Net.send net ~src:a ~dst:b "x";
  Engine.run e;
  Alcotest.(check int) "dead senders send nothing" 0 !got

let test_net_in_flight_survives_sender_death () =
  (* IP semantics: a packet already in flight is delivered even if the
     sender dies meanwhile. *)
  let e, net = mk_net () in
  let got = ref 0 in
  let a = Net.register net ~site:0 (fun ~src:_ _ -> ()) in
  let b = Net.register net ~site:1 (fun ~src:_ _ -> incr got) in
  Net.send net ~src:a ~dst:b "x";
  Net.set_down net a;
  Engine.run e;
  Alcotest.(check int) "delivered" 1 !got

let test_net_loss () =
  let e, net = mk_net () in
  Net.apply net (Faults.Loss 0.5);
  let got = ref 0 in
  let a = Net.register net ~site:0 (fun ~src:_ _ -> ()) in
  let b = Net.register net ~site:1 (fun ~src:_ _ -> incr got) in
  for _ = 1 to 1000 do
    Net.send net ~src:a ~dst:b "x"
  done;
  Engine.run e;
  Alcotest.(check bool) "roughly half lost" true (!got > 350 && !got < 650);
  Alcotest.(check int) "conservation" 1000 (count net "net.delivered" + dropped net "loss")

let test_net_loss_bad_rate () =
  let _, net = mk_net () in
  Alcotest.check_raises "rate > 1"
    (Invalid_argument "Faults.apply: Loss needs 0 <= p <= 1") (fun () ->
      Net.apply net (Faults.Loss 1.5));
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Faults.apply: Loss needs 0 <= p <= 1") (fun () ->
      Net.apply net (Faults.Loss (-0.1)))

let test_net_blackhole () =
  (* p = 1 is a total blackhole: every message dropped, all counted. *)
  let e, net = mk_net () in
  Net.apply net (Faults.Loss 1.);
  let got = ref 0 in
  let a = Net.register net ~site:0 (fun ~src:_ _ -> ()) in
  let b = Net.register net ~site:1 (fun ~src:_ _ -> incr got) in
  for _ = 1 to 50 do
    Net.send net ~src:a ~dst:b "x"
  done;
  Engine.run e;
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "all counted as loss" 50 (dropped net "loss");
  Net.apply net (Faults.Loss 0.);
  Net.send net ~src:a ~dst:b "y";
  Engine.run e;
  Alcotest.(check int) "delivery resumes" 1 !got

let test_net_move () =
  let e, net = mk_net ~latency:(fun a b -> float_of_int (abs (a - b)) +. 1.) () in
  let when_got = ref [] in
  let a = Net.register net ~site:0 (fun ~src:_ _ -> ()) in
  let b = Net.register net ~site:1 (fun ~src:_ _ -> when_got := Engine.now e :: !when_got) in
  Net.send net ~src:a ~dst:b "x";
  Engine.run e;
  Net.move net b 100;
  Net.send net ~src:a ~dst:b "y";
  Engine.run e;
  (match List.rev !when_got with
  | [ t1; t2 ] ->
      Alcotest.check feq "before move" 2. t1;
      Alcotest.check feq "after move" (2. +. 101.) t2
  | _ -> Alcotest.fail "expected two deliveries");
  Alcotest.(check int) "site updated" 100 (Net.site net b)

let test_net_tap_and_stats () =
  let e, net = mk_net () in
  let tapped = ref 0 in
  Net.set_tap net (fun ~src:_ ~dst:_ _ -> incr tapped);
  let a = Net.register net ~site:0 (fun ~src:_ _ -> ()) in
  let b = Net.register net ~site:1 (fun ~src:_ _ -> ()) in
  Net.send net ~src:a ~dst:b "x";
  Net.send net ~src:b ~dst:a "y";
  Engine.run e;
  Alcotest.(check int) "tap saw both" 2 !tapped;
  Alcotest.(check int) "sent" 2 (count net "net.sent");
  Alcotest.(check int) "delivered" 2 (count net "net.delivered");
  Alcotest.(check int) "endpoints" 2 (Net.endpoint_count net)

let test_net_unknown_addr () =
  let _, net = mk_net () in
  Alcotest.check_raises "unknown addr" (Invalid_argument "Net: unknown address")
    (fun () -> Net.send net ~src:0 ~dst:1 "x")

let test_net_handler_swap () =
  let e, net = mk_net () in
  let log = ref [] in
  let a = Net.register net ~site:0 (fun ~src:_ _ -> ()) in
  let b = Net.register net ~site:0 (fun ~src:_ _ -> log := "old" :: !log) in
  Net.set_handler net b (fun ~src:_ _ -> log := "new" :: !log);
  Net.send net ~src:a ~dst:b "x";
  Engine.run e;
  Alcotest.(check (list string)) "new handler used" [ "new" ] !log

let test_net_many_endpoints () =
  (* Exercise endpoint array growth past the initial capacity. *)
  let e, net = mk_net () in
  let count = ref 0 in
  let addrs =
    List.init 100 (fun i -> Net.register net ~site:i (fun ~src:_ _ -> incr count))
  in
  List.iter (fun dst -> Net.send net ~src:(List.hd addrs) ~dst "x") addrs;
  Engine.run e;
  Alcotest.(check int) "all delivered" 100 !count

(* --- link-level faults --- *)

let test_net_partition_and_heal () =
  let e, net = mk_net () in
  let got = ref 0 in
  let a = Net.register net ~site:0 (fun ~src:_ _ -> ()) in
  let b = Net.register net ~site:1 (fun ~src:_ _ -> incr got) in
  let c = Net.register net ~site:2 (fun ~src:_ _ -> incr got) in
  Net.apply net (Faults.Partition [ 0; 1 ]);
  Net.send net ~src:a ~dst:c "cross";
  Net.send net ~src:a ~dst:b "inside";
  Engine.run e;
  Alcotest.(check int) "only the inside message arrives" 1 !got;
  Alcotest.(check int) "drop counted as partition" 1
    (dropped net "partition");
  Net.apply net Faults.Heal;
  Net.send net ~src:a ~dst:c "after heal";
  Engine.run e;
  Alcotest.(check int) "cross traffic resumes" 2 !got

let test_net_partition_both_directions () =
  let e, net = mk_net () in
  let got = ref 0 in
  let a = Net.register net ~site:0 (fun ~src:_ _ -> incr got) in
  let b = Net.register net ~site:5 (fun ~src:_ _ -> incr got) in
  Net.apply net (Faults.Partition [ 0 ]);
  Net.send net ~src:a ~dst:b "->";
  Net.send net ~src:b ~dst:a "<-";
  Engine.run e;
  Alcotest.(check int) "cut both ways" 0 !got;
  Net.apply net Faults.Heal;
  Net.send net ~src:a ~dst:b "->";
  Net.send net ~src:b ~dst:a "<-";
  Engine.run e;
  Alcotest.(check int) "heal restores both ways" 2 !got

let test_net_gray_link_one_way () =
  let e, net = mk_net () in
  let at_a = ref 0 and at_b = ref 0 in
  let a = Net.register net ~site:0 (fun ~src:_ _ -> incr at_a) in
  let b = Net.register net ~site:1 (fun ~src:_ _ -> incr at_b) in
  Net.apply net (Faults.Gray { from_site = 0; to_site = 1 });
  Net.send net ~src:a ~dst:b "a->b";
  Net.send net ~src:b ~dst:a "b->a";
  Engine.run e;
  Alcotest.(check int) "a->b dropped" 0 !at_b;
  Alcotest.(check int) "b->a still works" 1 !at_a;
  Alcotest.(check int) "counted as gray" 1 (dropped net "gray");
  Net.apply net (Faults.Gray_heal { from_site = 0; to_site = 1 });
  Net.send net ~src:a ~dst:b "a->b again";
  Engine.run e;
  Alcotest.(check int) "restored" 1 !at_b

let test_net_burst_loss_extremes () =
  let e, net = mk_net () in
  let got = ref 0 in
  let a = Net.register net ~site:0 (fun ~src:_ _ -> ()) in
  let b = Net.register net ~site:1 (fun ~src:_ _ -> incr got) in
  (* Chain that enters Bad on the first message and never leaves. *)
  Net.apply net (Faults.Burst_loss { p_enter = 1.; p_exit = 0.; loss_bad = 1. });
  for _ = 1 to 20 do
    Net.send net ~src:a ~dst:b "x"
  done;
  Engine.run e;
  Alcotest.(check int) "all dropped in Bad state" 0 !got;
  Alcotest.(check int) "counted as burst" 20 (dropped net "burst");
  Net.apply net Faults.Burst_end;
  Net.send net ~src:a ~dst:b "y";
  Engine.run e;
  Alcotest.(check int) "burst end restores" 1 !got

let test_net_burst_loss_bursty () =
  (* With a real two-state chain, losses must cluster: compare the number
     of loss runs against what the same loss count would give i.i.d. *)
  let e, net = mk_net () in
  let log = ref [] in
  let a = Net.register net ~site:0 (fun ~src:_ _ -> ()) in
  let b = Net.register net ~site:1 (fun ~src:_ _ -> ()) in
  Net.apply net (Faults.Burst_loss { p_enter = 0.05; p_exit = 0.25; loss_bad = 1. });
  for _ = 1 to 2000 do
    let before = dropped net "burst" in
    Net.send net ~src:a ~dst:b "x";
    log := (dropped net "burst" = before) :: !log
  done;
  Engine.run e;
  let outcomes = Array.of_list (List.rev !log) in
  let losses = Array.fold_left (fun acc ok -> if ok then acc else acc + 1) 0 outcomes in
  let runs = ref 0 in
  Array.iteri
    (fun i ok ->
      if (not ok) && (i = 0 || outcomes.(i - 1)) then incr runs)
    outcomes;
  Alcotest.(check bool) "some loss happened" true (losses > 50);
  (* Mean burst length 1/p_exit = 4: far fewer runs than losses. *)
  Alcotest.(check bool) "losses are clustered" true
    (float_of_int !runs < 0.6 *. float_of_int losses)

let test_net_duplication () =
  let e, net = mk_net () in
  let got = ref 0 in
  let a = Net.register net ~site:0 (fun ~src:_ _ -> ()) in
  let b = Net.register net ~site:1 (fun ~src:_ _ -> incr got) in
  Net.apply net (Faults.Duplicate 1.);
  for _ = 1 to 10 do
    Net.send net ~src:a ~dst:b "x"
  done;
  Engine.run e;
  Alcotest.(check int) "every message delivered twice" 20 !got;
  Alcotest.(check int) "duplicates counted" 10 (count net "net.duplicated");
  Alcotest.(check int) "delivered counts copies" 20 (count net "net.delivered")

let test_net_jitter_and_spike () =
  let e, net = mk_net ~latency:(fun _ _ -> 10.) () in
  let times = ref [] in
  let a = Net.register net ~site:0 (fun ~src:_ _ -> ()) in
  let b = Net.register net ~site:1 (fun ~src:_ _ -> times := Engine.now e :: !times) in
  Net.apply net (Faults.Latency_spike 5.);
  Net.send net ~src:a ~dst:b "x";
  Engine.run e;
  (match !times with
  | [ t ] -> Alcotest.check feq "fixed spike adds 5ms" 15. t
  | _ -> Alcotest.fail "expected one delivery");
  times := [];
  Net.apply net (Faults.Latency_spike 0.);
  Net.apply net (Faults.Jitter 8.);
  let t0 = Engine.now e in
  for _ = 1 to 100 do
    Net.send net ~src:a ~dst:b "x"
  done;
  Engine.run e;
  let ok =
    List.for_all (fun t -> t >= t0 +. 10. && t < t0 +. 10. +. 8.) !times
  in
  Alcotest.(check bool) "jittered deliveries within [latency, latency+jitter)"
    true ok;
  Alcotest.(check bool) "jitter actually varies" true
    (List.sort_uniq compare !times |> List.length > 1)

let test_net_rejects_non_finite () =
  (* A NaN delay would put a delivery at time NaN on top of the event
     heap, where [run_until] never passes it, so nothing behind it would
     ever run; a NaN loss rate would never drop.  Non-finite parameters
     are refused, and the network keeps its previous settings. *)
  let e, net = mk_net ~latency:(fun _ _ -> 10.) () in
  let times = ref [] in
  let a = Net.register net ~site:0 (fun ~src:_ _ -> ()) in
  let b = Net.register net ~site:1 (fun ~src:_ _ -> times := Engine.now e :: !times) in
  List.iter
    (fun ev ->
      match Net.apply net ev with
      | () -> Alcotest.failf "accepted %a" Faults.pp_event ev
      | exception Invalid_argument _ -> ())
    Faults.
      [
        Latency_spike Float.nan;
        Latency_spike Float.infinity;
        Jitter Float.nan;
        Jitter Float.infinity;
        Loss Float.nan;
        Duplicate Float.nan;
        Burst_loss { p_enter = 0.5; p_exit = 0.5; loss_bad = Float.nan };
      ];
  Net.send net ~src:a ~dst:b "x";
  Net.apply net (Faults.Latency_spike 5.);
  Net.send net ~src:a ~dst:b "y";
  Engine.run_until e 100.;
  Alcotest.(check (list (float 1e-9))) "both delivered on time" [ 10.; 15. ]
    (List.rev !times)

(* --- fault schedule DSL --- *)

let test_faults_schedule_drives_net () =
  let e, net = mk_net () in
  let got = ref 0 in
  let a = Net.register net ~site:0 (fun ~src:_ _ -> ()) in
  let b = Net.register net ~site:1 (fun ~src:_ _ -> incr got) in
  Faults.install e
    (Net.driver net)
    [
      (10., Faults.Partition [ 0 ]);
      (30., Faults.Heal);
      (50., Faults.Loss 1.);
      (70., Faults.Loss 0.);
    ];
  let send_at t = Engine.schedule e ~delay:t (fun () -> Net.send net ~src:a ~dst:b "x") in
  send_at 5.;
  (* delivered *)
  send_at 15.;
  (* partitioned *)
  send_at 35.;
  (* healed: delivered *)
  send_at 55.;
  (* blackholed *)
  send_at 75.;
  (* delivered *)
  Engine.run e;
  Alcotest.(check int) "schedule toggled faults on time" 3 !got;
  Alcotest.(check int) "one partition drop" 1 (dropped net "partition");
  Alcotest.(check int) "one loss drop" 1 (dropped net "loss")

let test_faults_crash_restart_callbacks () =
  let e, net = mk_net () in
  let log = ref [] in
  Faults.install e
    (Net.driver
       ~crash:(fun i -> log := ("crash", i) :: !log)
       ~restart:(fun i -> log := ("restart", i) :: !log)
       net)
    [ (20., Faults.Restart 3); (10., Faults.Crash 3) ];
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "events fire in schedule order regardless of list order"
    [ ("crash", 3); ("restart", 3) ]
    (List.rev !log)

let test_faults_churn_reproducible () =
  let mk seed =
    Faults.churn (Rng.create seed) ~victims:[ 0; 1; 2; 3 ] ~start:100.
      ~spacing:50. ~downtime:200.
  in
  Alcotest.(check bool) "same seed, same schedule" true (mk 7L = mk 7L);
  let s = mk 7L in
  Alcotest.(check int) "one crash and one restart per victim" 8 (List.length s);
  let crash_time = Hashtbl.create 4 and restart_time = Hashtbl.create 4 in
  List.iter
    (fun (t, e) ->
      match e with
      | Faults.Crash i -> Hashtbl.replace crash_time i t
      | Faults.Restart i -> Hashtbl.replace restart_time i t
      | _ -> Alcotest.fail "unexpected event kind")
    s;
  for i = 0 to 3 do
    Alcotest.check feq "downtime respected"
      (Hashtbl.find crash_time i +. 200.)
      (Hashtbl.find restart_time i)
  done;
  let times = List.map fst s in
  Alcotest.(check bool) "schedule sorted by time" true
    (List.sort compare times = times)

let test_net_endpoint_slots_independent () =
  (* Spare capacity slots must not alias one another: crashing one
     endpoint leaves every other endpoint up. *)
  let _, net = mk_net () in
  let addrs = List.init 40 (fun i -> Net.register net ~site:i (fun ~src:_ _ -> ())) in
  Net.set_down net (List.nth addrs 17);
  List.iteri
    (fun i a ->
      Alcotest.(check bool)
        (Printf.sprintf "endpoint %d up-state" i)
        (i <> 17) (Net.is_up net a))
    addrs

let test_engine_cancel_inside_callback () =
  (* A timer that cancels itself on its first firing must not tick again. *)
  let e = Engine.create () in
  let count = ref 0 in
  let handle = ref None in
  let timer =
    Engine.every e ~period:5. (fun () ->
        incr count;
        match !handle with Some t -> Engine.cancel t | None -> ())
  in
  handle := Some timer;
  Engine.run_until e 100.;
  Alcotest.(check int) "fired exactly once" 1 !count

let test_engine_many_events_order =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:50 ~name:"random schedules fire in time order"
       QCheck2.Gen.(list_size (int_range 1 60) (float_bound_exclusive 1000.))
       (fun delays ->
         let e = Engine.create () in
         let fired = ref [] in
         List.iter
           (fun d -> Engine.schedule e ~delay:d (fun () -> fired := d :: !fired))
           delays;
         Engine.run e;
         let times = List.rev !fired in
         let rec nondecreasing = function
           | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
           | [ _ ] | [] -> true
         in
         (* same multiset, fired in non-decreasing time order *)
         List.sort compare delays = List.sort compare times
         && nondecreasing times))

let () =
  Alcotest.run "simnet"
    [
      ( "engine",
        [
          Alcotest.test_case "starts at zero" `Quick test_engine_time_starts_zero;
          Alcotest.test_case "time ordering" `Quick test_engine_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_schedule;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay_clamped;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "run_for advances clock" `Quick test_engine_run_for;
          Alcotest.test_case "periodic timer" `Quick test_engine_periodic;
          Alcotest.test_case "periodic phase" `Quick test_engine_periodic_phase;
          Alcotest.test_case "bad period" `Quick test_engine_bad_period;
          Alcotest.test_case "step" `Quick test_engine_step;
          Alcotest.test_case "cancel inside callback" `Quick
            test_engine_cancel_inside_callback;
          test_engine_many_events_order;
        ] );
      ( "net",
        [
          Alcotest.test_case "latency-faithful delivery" `Quick test_net_delivery_latency;
          Alcotest.test_case "self send" `Quick test_net_self_send;
          Alcotest.test_case "down endpoint" `Quick test_net_down_endpoint;
          Alcotest.test_case "down sender" `Quick test_net_down_sender;
          Alcotest.test_case "in-flight survives sender death" `Quick
            test_net_in_flight_survives_sender_death;
          Alcotest.test_case "random loss" `Quick test_net_loss;
          Alcotest.test_case "loss rate validation" `Quick test_net_loss_bad_rate;
          Alcotest.test_case "blackhole (p = 1)" `Quick test_net_blackhole;
          Alcotest.test_case "mobility (move)" `Quick test_net_move;
          Alcotest.test_case "tap and stats" `Quick test_net_tap_and_stats;
          Alcotest.test_case "unknown address" `Quick test_net_unknown_addr;
          Alcotest.test_case "handler swap" `Quick test_net_handler_swap;
          Alcotest.test_case "endpoint growth" `Quick test_net_many_endpoints;
          Alcotest.test_case "endpoint slots independent" `Quick
            test_net_endpoint_slots_independent;
        ] );
      ( "faults",
        [
          Alcotest.test_case "partition and heal" `Quick test_net_partition_and_heal;
          Alcotest.test_case "partition cuts both ways" `Quick
            test_net_partition_both_directions;
          Alcotest.test_case "gray link is one-way" `Quick test_net_gray_link_one_way;
          Alcotest.test_case "burst loss extremes" `Quick test_net_burst_loss_extremes;
          Alcotest.test_case "burst loss clusters" `Quick test_net_burst_loss_bursty;
          Alcotest.test_case "duplication" `Quick test_net_duplication;
          Alcotest.test_case "jitter and spike" `Quick test_net_jitter_and_spike;
          Alcotest.test_case "NaN and infinite parameters rejected" `Quick
            test_net_rejects_non_finite;
          Alcotest.test_case "schedule drives net" `Quick test_faults_schedule_drives_net;
          Alcotest.test_case "crash/restart callbacks" `Quick
            test_faults_crash_restart_callbacks;
          Alcotest.test_case "churn reproducible" `Quick test_faults_churn_reproducible;
        ] );
    ]
