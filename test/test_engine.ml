(* The sans-IO engine's contract, exercised without a single socket:

   - determinism: same seed + same stamped event sequence => the same
     effect trace, byte for byte;
   - decode dispatch: the kind byte sorts datagrams between the i3 and
     Chord codecs (data packets carry no preamble at all and still land
     on the i3 side);
   - the paper's Fig. 3 path as pure effects: a host's Insert frame then
     its Data frame yield a [Deliver] at the trigger's owner;
   - dual-driver parity: interpreting one engine by hand and its twin
     through [Transport.Driver] produces identical wire bytes — the
     driver adds delivery, never behaviour;
   - two engines joined over an in-memory loopback form a real Chord
     ring (successor pointers converge both ways) on virtual time;
   - ring-level parity: a seeded trace on a three-engine ring gives
     every engine the same effect trace whether the engines are stepped
     directly over an in-memory loopback or through [Transport.Driver]
     over [Transport.Sim]. *)

let fast_chord =
  {
    Chord.Protocol.default_config with
    stabilize_period = 50.;
    fix_fingers_period = 100.;
    rpc_timeout = 30.;
  }

let effect_bytes effs =
  List.filter_map I3.Engine.encode_effect effs

(* An engine's only inputs are frames and ticks: a trigger insert or a
   data packet arrives as the frame a host sends it. *)
let sender = 0x5e4d

let from_host ?(src = sender) msg =
  I3.Engine.Frame { src; frame = I3.Engine.I3 msg }

let insert ?src trigger =
  from_host ?src (I3.Message.Insert { trigger; token = None })

let data ?src packet = from_host ?src (I3.Message.Data packet)

(* Feed a driver an event the way a daemon's loop does: a frame as the
   datagram that carries it, a tick on the clock (which steps the
   engine only when a timer is due). *)
let drive driver ~now = function
  | I3.Engine.Tick -> Transport.Driver.tick driver ~now
  | I3.Engine.Frame { src; frame = I3.Engine.I3 m } ->
      Transport.Driver.on_datagrams driver ~now [ (src, I3.Codec.encode m) ]
  | _ -> invalid_arg "drive: a host's frame or a tick"

(* --- determinism --- *)

let script engine =
  (* A fixed event scenario on a virtual clock; returns the full trace. *)
  let id = Id.name_hash "determinism-id" in
  let trigger = I3.Trigger.to_host ~id ~owner:0xbeef in
  let trace = ref [] in
  let feed now ev = trace := !trace @ I3.Engine.step engine ~now ev in
  feed 0. (insert trigger);
  feed 10.
    (data
       (I3.Packet.make ~stack:[ I3.Packet.Sid id ] ~payload:"abc" ~trace:3 ()));
  feed 200. I3.Engine.Tick;
  feed 1_000. I3.Engine.Tick;
  feed 5_000. I3.Engine.Tick;
  !trace

let test_determinism () =
  let mk () =
    I3.Engine.create ~seed:42 ~addr:7
      ~id:(Id.routing_key (Id.name_hash "node"))
      ~chord_config:fast_chord
      ~metrics:(Obs.Metrics.create ())
      ()
  in
  let a = script (mk ()) and b = script (mk ()) in
  Alcotest.(check int) "same trace length" (List.length a) (List.length b);
  List.iter2
    (fun ea eb ->
      Alcotest.(check bool) "same effect" true (ea = eb))
    a b;
  (* And the wire rendering agrees too. *)
  Alcotest.(check bool) "same bytes" true (effect_bytes a = effect_bytes b)

(* --- decode dispatch --- *)

let test_decode_dispatch () =
  let i3_frame =
    I3.Codec.encode
      (I3.Message.Insert
         {
           trigger = I3.Trigger.to_host ~id:(Id.name_hash "x") ~owner:9;
           token = Some "tok";
         })
  in
  (match I3.Engine.decode i3_frame with
  | Ok (I3.Engine.I3 (I3.Message.Insert _)) -> ()
  | _ -> Alcotest.fail "i3 control frame must dispatch to the i3 codec");
  let chord_frame =
    Chord.Codec.encode
      (Chord.Protocol.Get_state { token = 1; reply_to = 12 })
  in
  (match I3.Engine.decode chord_frame with
  | Ok (I3.Engine.Chord (Chord.Protocol.Get_state _)) -> ()
  | _ -> Alcotest.fail "chord frame must dispatch to the chord codec");
  (* Data packets are encoded bare (no preamble); the flags byte at the
     kind offset stays below the control range. *)
  let data_frame =
    I3.Codec.encode
      (I3.Message.Data
         (I3.Packet.make ~stack:[ I3.Packet.Sid (Id.name_hash "d") ]
            ~payload:"pp" ()))
  in
  (match I3.Engine.decode data_frame with
  | Ok (I3.Engine.I3 (I3.Message.Data _)) -> ()
  | _ -> Alcotest.fail "bare data packet must land on the i3 side");
  match I3.Engine.decode "\xff\xff\xff\xff garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not decode"

(* --- Fig. 3 as effects --- *)

let test_insert_then_deliver () =
  let e =
    I3.Engine.create ~seed:3 ~addr:1 ~chord_config:fast_chord
      ~metrics:(Obs.Metrics.create ())
      ()
  in
  let host = 0xcafe in
  let id = Id.name_hash "figure-3" in
  let effs =
    I3.Engine.step e ~now:0. (insert (I3.Trigger.to_host ~id ~owner:host))
  in
  (* A single-node ring owns everything: the insert acks locally. *)
  let acked =
    List.exists
      (function
        | I3.Engine.Send (_, I3.Message.Insert_ack _) -> true | _ -> false)
      effs
  in
  Alcotest.(check bool) "insert acked" true acked;
  let effs =
    I3.Engine.step e ~now:1.
      (data
         (I3.Packet.make ~stack:[ I3.Packet.Sid id ] ~payload:"hello" ~trace:7
            ()))
  in
  match
    List.find_opt
      (function I3.Engine.Deliver _ -> true | _ -> false)
      effs
  with
  | Some (I3.Engine.Deliver { dst; stack; payload; trace }) ->
      Alcotest.(check int) "delivered to the trigger's owner" host dst;
      Alcotest.(check bool) "stack consumed" true (stack = []);
      Alcotest.(check string) "payload intact" "hello" payload;
      Alcotest.(check int) "trace carried" 7 trace
  | _ -> Alcotest.fail "matched packet must produce a Deliver effect"

(* --- totality: no decodable frame may crash the engine --- *)

(* A static ring that owns the lower half of the id space and relays the
   rest, with neighbours to replicate to and push caches at. *)
let half_ring_view =
  let pivot =
    Id.of_raw_string ("\x80" ^ String.make (Id.byte_length - 1) '\x00')
  in
  let owns id = Id.compare id pivot < 0 in
  {
    I3.Server.owns;
    next_hop = (fun id -> if owns id then None else Some 2);
    successor_addr = (fun () -> Some 3);
    predecessor_addr = (fun () -> Some 4);
  }

let test_step_total =
  let open QCheck2.Gen in
  let gen =
    let* seed = int_range 1 1_000_000 in
    let* static = bool in
    let* ops = list_size (int_range 1 40) (int_range 0 99) in
    return (seed, static, ops)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120
       ~name:"step never raises on decoded frames" gen
       (fun (seed, static, ops) ->
         let rng = Rng.create (Int64.of_int seed) in
         let metrics = Obs.Metrics.create () in
         let e =
           if static then
             I3.Engine.create_static ~addr:1 ~id:(Id.random rng)
               ~view:half_ring_view ~metrics ()
           else
             I3.Engine.create ~seed ~addr:1 ~chord_config:fast_chord ~metrics
               ()
         in
         (* Chord frames stepped into the engine: a static one must drop
            and count each, and never grow Chord state. *)
         let chord_frames = ref 0 in
         let now = ref 0. in
         (* lifetimes a remote peer could put on the wire: zero, negative,
            NaN, absurd — none may reach the trigger table as a crash *)
         let hostile_float () =
           match Rng.int rng 5 with
           | 0 -> 0.
           | 1 -> -5.
           | 2 -> Float.nan
           | 3 -> Float.infinity
           | _ -> float_of_int (Rng.int rng 10_000)
         in
         let trigger () =
           let id = Id.random rng in
           if Rng.bool rng then
             I3.Trigger.to_host ~id ~owner:(Rng.int rng 0xffff)
           else
             I3.Trigger.make ~id
               ~stack:[ I3.Packet.Sid (Id.random rng) ]
               ~owner:(Rng.int rng 0xffff)
         in
         let msg () =
           match Rng.int rng 8 with
           | 0 ->
               I3.Message.Replica
                 { trigger = trigger (); lifetime = hostile_float () }
           | 1 ->
               I3.Message.Cache_push
                 {
                   triggers =
                     List.init
                       (1 + Rng.int rng 3)
                       (fun _ -> (trigger (), hostile_float ()));
                 }
           | 2 -> I3.Message.Insert { trigger = trigger (); token = None }
           | 3 -> I3.Message.Remove { trigger = trigger () }
           | 4 ->
               I3.Message.Data
                 {
                   (I3.Packet.make
                      ~stack:[ I3.Packet.Sid (Id.random rng) ]
                      ~payload:"p" ())
                   with
                   I3.Packet.ttl = Rng.int rng 2;
                 }
           | 5 ->
               I3.Message.Pushback { id = Id.random rng; dead = Id.random rng }
           | 6 -> I3.Message.Ping { nonce = Rng.int rng 1000 }
           | _ -> I3.Message.Insert_ack { trigger = trigger (); server = 9 }
         in
         let peer () =
           { Chord.Protocol.id = Id.random rng; addr = Rng.int rng 10 }
         in
         let chord_msg () =
           match Rng.int rng 4 with
           | 0 ->
               Chord.Protocol.Lookup_step
                 { key = Id.random rng; token = Rng.int rng 100; reply_to = 5 }
           | 1 ->
               Chord.Protocol.Get_state { token = Rng.int rng 100; reply_to = 5 }
           | 2 ->
               Chord.Protocol.State
                 {
                   token = Rng.int rng 100;
                   self = peer ();
                   pred = Some (peer ());
                   succs = [ peer () ];
                 }
           | _ -> Chord.Protocol.Notify { who = peer (); chain = [ peer () ] }
         in
         let frame () =
           (* one in four a Chord frame; half direct, half pushed through
              the codec with byte flips: only frames that still decode
              reach the engine, exactly the filtering a
              [Transport.Driver] performs *)
           let direct, encoded =
             if Rng.int rng 4 = 0 then
               let m = chord_msg () in
               (I3.Engine.Chord m, Chord.Codec.encode m)
             else
               let m = msg () in
               (I3.Engine.I3 m, I3.Codec.encode m)
           in
           let counted f =
             (match f with
             | I3.Engine.Chord _ -> incr chord_frames
             | I3.Engine.I3 _ -> ());
             Some f
           in
           if Rng.bool rng then counted direct
           else begin
             let bytes = Bytes.of_string encoded in
             for _ = 1 to Rng.int rng 4 do
               let i = Rng.int rng (Bytes.length bytes) in
               Bytes.set bytes i (Char.chr (Rng.int rng 256))
             done;
             match I3.Engine.decode (Bytes.to_string bytes) with
             | Ok f -> counted f
             | Error _ -> None
           end
         in
         (try
            List.iter
              (fun op ->
                now := !now +. float_of_int (Rng.int rng 200);
                if op < 10 then
                  ignore (I3.Engine.step e ~now:!now I3.Engine.Tick)
                else if op < 80 then (
                  match frame () with
                  | Some f ->
                      ignore
                        (I3.Engine.step e ~now:!now
                           (I3.Engine.Frame { src = Rng.int rng 10; frame = f }))
                  | None -> ())
                else
                  (* burst arrival, as Driver.on_datagrams dispatches it *)
                  let events =
                    List.filter_map
                      (fun _ ->
                        Option.map
                          (fun f ->
                            I3.Engine.Frame { src = Rng.int rng 10; frame = f })
                          (frame ()))
                      (List.init (1 + Rng.int rng 5) Fun.id)
                  in
                  ignore (I3.Engine.step e ~now:!now (I3.Engine.Batch events)))
              ops
          with exn ->
            QCheck2.Test.fail_reportf "engine.step raised %s"
              (Printexc.to_string exn));
         let read name =
           List.fold_left
             (fun acc (s : Obs.Metrics.sample) ->
               match s.value with
               | Obs.Metrics.Counter n when s.name = name -> acc + n
               | Obs.Metrics.Gauge g when s.name = name ->
                   acc + int_of_float g
               | _ -> acc)
             0
             (Obs.Metrics.snapshot ~prefix:name metrics)
         in
         (if static then
            let chord_series =
              Obs.Metrics.snapshot ~prefix:"chord." metrics
            in
            if chord_series <> [] then
              QCheck2.Test.fail_reportf "static engine grew %d chord series"
                (List.length chord_series)
            else if read "engine.pending_rpcs" <> 0 then
              QCheck2.Test.fail_report "static engine has pending RPCs"
            else if read "engine.chord_dropped" <> !chord_frames then
              QCheck2.Test.fail_reportf "%d chord frames, %d dropped"
                !chord_frames
                (read "engine.chord_dropped")
            else
              match I3.Engine.chord e with
              | _ -> QCheck2.Test.fail_report "static engine has a chord node"
              | exception Invalid_argument _ -> ());
         true))

(* --- dual-driver parity --- *)

let test_driver_parity () =
  (* Twin engines, same seed; one interpreted by hand via
     [encode_effect], one through [Transport.Driver].  The bytes put on
     the (captured) wire must be identical. *)
  let mk () =
    I3.Engine.create ~seed:11 ~addr:3
      ~id:(Id.routing_key (Id.name_hash "twin"))
      ~join:[ 99 ] (* a contact that never answers: retries re-arm *)
      ~chord_config:fast_chord
      ~metrics:(Obs.Metrics.create ())
      ()
  in
  let by_hand = mk () in
  let driven = mk () in
  let hand_sent = ref [] in
  let drv_sent = ref [] in
  let driver =
    Transport.Driver.create
      ~metrics:(Obs.Metrics.create ())
      ~send:(fun datagrams -> drv_sent := List.rev_append datagrams !drv_sent)
      driven
  in
  let id = Id.name_hash "parity" in
  let events =
    [
      (0., insert (I3.Trigger.to_host ~id ~owner:0xaa));
      (40., I3.Engine.Tick);
      (80., data (I3.Packet.make ~stack:[ I3.Packet.Sid id ] ~payload:"x" ()));
      (200., I3.Engine.Tick);
      (400., I3.Engine.Tick);
    ]
  in
  List.iter
    (fun (now, ev) ->
      let effs = I3.Engine.step by_hand ~now ev in
      hand_sent := List.rev_append (effect_bytes effs) !hand_sent;
      drive driver ~now ev)
    events;
  let hand = List.rev !hand_sent and drv = List.rev !drv_sent in
  Alcotest.(check int) "same send count" (List.length hand) (List.length drv);
  List.iter2
    (fun (d1, b1) (d2, b2) ->
      Alcotest.(check int) "same dst" d1 d2;
      Alcotest.(check string) "same bytes" b1 b2)
    hand drv;
  (* The driver tracked the engine's next deadline. *)
  Alcotest.(check bool) "driver armed a deadline" true
    (Transport.Driver.next_due driver <> None)

(* --- one send call per step --- *)

let test_step_sends_once () =
  let e =
    I3.Engine.create ~seed:9 ~addr:1 ~chord_config:fast_chord
      ~metrics:(Obs.Metrics.create ())
      ()
  in
  let calls = ref [] in
  let driver =
    Transport.Driver.create
      ~metrics:(Obs.Metrics.create ())
      ~send:(fun datagrams -> calls := datagrams :: !calls)
      e
  in
  (* Sixteen triggers on one identifier (the paper's multicast): one
     Data frame fans out into sixteen Delivers. *)
  let id = Id.name_hash "fan-out" in
  let owners = List.init 16 (fun i -> 0x1000 + i) in
  List.iter
    (fun owner ->
      drive driver ~now:0. (insert ~src:owner (I3.Trigger.to_host ~id ~owner)))
    owners;
  let effects = ref [] in
  Transport.Driver.on_effects driver (fun effs -> effects := effs);
  calls := [];
  Transport.Driver.on_datagrams driver ~now:1.
    [
      ( 0x2000,
        I3.Codec.encode
          (I3.Message.Data
             (I3.Packet.make ~stack:[ I3.Packet.Sid id ] ~payload:"fan" ())) );
    ];
  match !calls with
  | [ sent ] ->
      Alcotest.(check (list (pair int string)))
        "the step's datagrams, in effect order" (effect_bytes !effects) sent;
      let delivered =
        List.filter_map
          (function I3.Engine.Deliver { dst; _ } -> Some dst | _ -> None)
          !effects
      in
      Alcotest.(check (list int)) "sixteen Delivers, one per owner" owners
        (List.sort compare delivered);
      Alcotest.(check int) "nothing but the Delivers" 16 (List.length sent)
  | calls ->
      Alcotest.failf "%d send calls for one step, want 1" (List.length calls)

(* --- the driver ticks only when a timer is due --- *)

let sum_samples metrics name f =
  List.fold_left
    (fun acc (s : Obs.Metrics.sample) ->
      if s.name = name then acc + f s else acc)
    0
    (Obs.Metrics.snapshot ~prefix:name metrics)

let engine_events metrics =
  sum_samples metrics "engine.events" (fun s ->
      match s.value with Obs.Metrics.Counter n -> n | _ -> 0)

let tick_steps metrics =
  sum_samples metrics "driver.step_ms" (fun s ->
      match s.value with
      | Obs.Metrics.Histogram { count; _ }
        when List.mem ("event", "tick") s.labels ->
          count
      | _ -> 0)

let test_tick_due_only () =
  let sched = Engine.create () in
  let net =
    Net.create ~metrics:(Obs.Metrics.create ()) sched ~rng:(Rng.of_int 0)
      ~latency:(fun _ _ -> 1.) ()
  in
  let ep = Transport.Sim.attach net ~site:0 in
  let silent = Transport.Sim.attach net ~site:0 in
  let metrics = Obs.Metrics.create () in
  let engine =
    I3.Engine.create ~seed:5 ~addr:(Transport.Sim.local_addr ep)
      ~id:(Id.routing_key (Id.name_hash "ticker"))
      ~join:[ Transport.Sim.local_addr silent ] (* never answers: retries *)
      ~chord_config:fast_chord ~metrics ()
  in
  let driver =
    Transport.Driver.create ~metrics
      ~send:(List.iter (fun (dst, bytes) -> Transport.Sim.send ep ~dst bytes))
      engine
  in
  let chord_sends = ref 0 in
  Transport.Driver.on_effects driver
    (List.iter (function
      | I3.Engine.Chord_send _ -> incr chord_sends
      | _ -> ()));
  (* A fresh driver is due at once: the first tick starts the engine. *)
  Transport.Driver.tick driver ~now:0.;
  Alcotest.(check int) "first tick steps" 1 (tick_steps metrics);
  let due () =
    match Transport.Driver.next_due driver with
    | Some due -> due
    | None -> Alcotest.fail "a joining engine always has a timer armed"
  in
  (* Walk deadline to deadline until the timers put a Chord RPC on the
     wire; every deadline must be met by exactly one step, and nothing
     before it by any. *)
  let rec walk rounds =
    let d = due () in
    let events = engine_events metrics and ticks = tick_steps metrics in
    List.iter
      (fun now ->
        Transport.Driver.tick driver ~now;
        Alcotest.(check int) "no engine event before the deadline" events
          (engine_events metrics);
        Alcotest.(check int) "no tick step before the deadline" ticks
          (tick_steps metrics))
      [ d -. 10.; d -. 1.; d -. 0.001 ];
    let sends = !chord_sends in
    (* Alternate ticking exactly at and a little after the deadline. *)
    Transport.Driver.tick driver ~now:(if rounds mod 2 = 0 then d else d +. 5.);
    Alcotest.(check int) "a due tick is one engine event" (events + 1)
      (engine_events metrics);
    Alcotest.(check int) "a due tick is one tick step" (ticks + 1)
      (tick_steps metrics);
    if !chord_sends = sends then
      if rounds = 0 then Alcotest.fail "no timer ever sent a Chord RPC"
      else walk (rounds - 1)
  in
  walk 20

(* --- two engines, in-memory loopback: the ring forms --- *)

let test_loopback_ring_forms () =
  let metrics = Obs.Metrics.create () in
  let addr_a = 1 and addr_b = 2 in
  let a =
    I3.Engine.create ~seed:1 ~addr:addr_a
      ~id:(Id.routing_key (Id.name_hash "node-a"))
      ~chord_config:fast_chord ~metrics ()
  in
  let b =
    I3.Engine.create ~seed:2 ~addr:addr_b
      ~id:(Id.routing_key (Id.name_hash "node-b"))
      ~join:[ addr_a ] ~chord_config:fast_chord ~metrics ()
  in
  let engine_at addr = if addr = addr_a then a else b in
  (* Interpret effects as a perfect in-memory network: every Send /
     Chord_send is re-decoded and stepped into the destination engine at
     the same instant. *)
  let rec interpret now src effs =
    List.iter
      (function
        | I3.Engine.Set_timer _ | I3.Engine.Deliver _ -> ()
        | eff -> (
            match I3.Engine.encode_effect eff with
            | None -> ()
            | Some (dst, bytes) when dst = addr_a || dst = addr_b -> (
                match I3.Engine.decode bytes with
                | Ok frame ->
                    interpret now dst
                      (I3.Engine.step (engine_at dst) ~now
                         (I3.Engine.Frame { src; frame }))
                | Error e -> Alcotest.fail ("loopback decode failed: " ^ e))
            | Some _ -> ()))
      effs
  in
  let now = ref 0. in
  while !now < 2_000. do
    interpret !now addr_a (I3.Engine.step a ~now:!now I3.Engine.Tick);
    interpret !now addr_b (I3.Engine.step b ~now:!now I3.Engine.Tick);
    now := !now +. 10.
  done;
  let succ_addr e =
    Option.map
      (fun p -> p.Chord.Protocol.addr)
      (Chord.Protocol.successor (I3.Engine.chord e))
  in
  Alcotest.(check (option int)) "A's successor is B" (Some addr_b)
    (succ_addr a);
  Alcotest.(check (option int)) "B's successor is A" (Some addr_a)
    (succ_addr b);
  (* And the overlay routes across it: a trigger inserted at A for an
     id owned by B must ack back, crossing the loopback "wire". *)
  let rng = Rng.of_int 5 in
  let owned_by id node =
    let k = Id.routing_key id in
    let na = I3.Engine.id a and nb = I3.Engine.id b in
    let owner =
      match (Id.compare na k >= 0, Id.compare nb k >= 0) with
      | true, false -> na
      | false, true -> nb
      | (true, true | false, false) -> if Id.compare na nb <= 0 then na else nb
    in
    Id.equal owner node
  in
  let rec pick () =
    let id = Id.random rng in
    if owned_by id (I3.Engine.id b) then id else pick ()
  in
  let id = pick () in
  let host = 0xd00d in
  interpret !now addr_a
    (I3.Engine.step a ~now:!now
       (insert ~src:host (I3.Trigger.to_host ~id ~owner:host)));
  (* The trigger must live at B, not A. *)
  let at_b =
    I3.Trigger_table.find_matches
      (I3.Server.triggers (I3.Engine.server b))
      ~now:!now id
    |> List.length
  in
  Alcotest.(check bool) "trigger stored at the owner across the wire" true
    (at_b > 0)

(* --- ring-level parity: in-memory loopback vs Transport.Driver --- *)

let ring_n = 3
let host_addr = ring_n (* one more endpoint: deliveries leave the ring there *)
let link_ms = 1.

(* Joins at 0/20/40 ms (each engine through the previous one), then
   trigger inserts and data sends at seeded engines and identifiers. *)
let ring_script seed =
  let rng = Rng.of_int seed in
  let ids = Array.init 4 (fun _ -> Id.random rng) in
  let inserts =
    Array.to_list
      (Array.mapi
         (fun k id ->
           ( 300. +. (10. *. float_of_int k),
             Rng.int rng ring_n,
             insert ~src:host_addr (I3.Trigger.to_host ~id ~owner:host_addr) ))
         ids)
  in
  let sends =
    List.init 6 (fun k ->
        let id = Rng.choose rng ids in
        ( 600. +. (25. *. float_of_int k),
          Rng.int rng ring_n,
          data ~src:host_addr
            (I3.Packet.make ~stack:[ I3.Packet.Sid id ]
               ~payload:(Printf.sprintf "p%d" k) ()) ))
  in
  inserts @ sends

let render = function
  | I3.Engine.Set_timer due -> Printf.sprintf "timer %.3f" due
  | eff -> (
      match I3.Engine.encode_effect eff with
      | Some (dst, bytes) -> Printf.sprintf "send %d %S" dst bytes
      | None -> assert false)

(* Run the script on one scheduler with a [link_ms] network and return
   each engine's effect trace plus the number of Deliver effects.  Both
   variants arm timers the same way: one pending wake-up per engine at
   its next deadline, which ticks the engine only if a timer is still
   due (a frame at the same instant may have fired it) and re-arms. *)
let run_ring ~through_driver seed =
  let sched = Engine.create () in
  let now () = Engine.now sched in
  let traces = Array.make ring_n [] in
  let wake = Array.make ring_n None in
  let delivers = ref 0 in
  let step = Array.make ring_n (fun (_ : I3.Engine.event) -> ()) in
  let tick = Array.make ring_n (fun () -> ()) in
  let next_due = Array.make ring_n (fun () -> None) in
  let rec arm i =
    match (next_due.(i) (), wake.(i)) with
    | None, _ -> ()
    | Some due, Some pending when pending <= due -> ()
    | Some due, _ ->
        wake.(i) <- Some due;
        Engine.schedule_at sched ~time:due (fun () ->
            if wake.(i) = Some due then begin
              wake.(i) <- None;
              tick.(i) ();
              arm i
            end)
  in
  let record i effs =
    traces.(i) <- List.rev_append (List.map render effs) traces.(i);
    List.iter (function I3.Engine.Deliver _ -> incr delivers | _ -> ()) effs;
    arm i
  in
  let net =
    Net.create ~metrics:(Obs.Metrics.create ()) sched ~rng:(Rng.of_int 0)
      ~latency:(fun _ _ -> link_ms) ()
  in
  let endpoints =
    Array.init (ring_n + 1) (fun _ -> Transport.Sim.attach net ~site:0)
  in
  Array.iteri
    (fun i ep ->
      Alcotest.(check int) "endpoint address" i (Transport.Sim.local_addr ep))
    endpoints;
  let start i =
    let e =
      I3.Engine.create ~seed:(seed + i) ~addr:i
        ~id:(Id.routing_key (Id.name_hash (Printf.sprintf "ring-%d" i)))
        ~join:(if i = 0 then [] else [ i - 1 ])
        ~chord_config:fast_chord
        ~metrics:(Obs.Metrics.create ())
        ()
    in
    next_due.(i) <- (fun () -> I3.Engine.next_due e);
    (if through_driver then begin
       let ep = endpoints.(i) in
       let driver =
         Transport.Driver.create
           ~metrics:(Obs.Metrics.create ())
           ~send:
             (List.iter (fun (dst, bytes) -> Transport.Sim.send ep ~dst bytes))
           e
       in
       Transport.Driver.on_effects driver (record i);
       Transport.Sim.set_handler ep (fun ~src bytes ->
           Transport.Driver.on_datagrams driver ~now:(now ()) [ (src, bytes) ]);
       step.(i) <- (fun ev -> drive driver ~now:(now ()) ev);
       tick.(i) <- (fun () -> Transport.Driver.tick driver ~now:(now ()))
     end
     else begin
       tick.(i) <-
         (fun () ->
           match I3.Engine.next_due e with
           | Some due when due <= now () -> step.(i) I3.Engine.Tick
           | Some _ | None -> ());
       step.(i) <-
         (fun ev ->
           let effs = I3.Engine.step e ~now:(now ()) ev in
           List.iter
             (fun eff ->
               match I3.Engine.encode_effect eff with
               | Some (dst, bytes) when dst < ring_n ->
                   Engine.schedule sched ~delay:link_ms (fun () ->
                       match I3.Engine.decode bytes with
                       | Ok frame -> step.(dst) (I3.Engine.Frame { src = i; frame })
                       | Error err -> Alcotest.fail ("loopback decode: " ^ err))
               | _ -> ())
             effs;
           record i effs)
     end);
    step.(i) I3.Engine.Tick
  in
  for i = 0 to ring_n - 1 do
    Engine.schedule_at sched ~time:(20. *. float_of_int i) (fun () -> start i)
  done;
  List.iter
    (fun (time, i, ev) -> Engine.schedule_at sched ~time (fun () -> step.(i) ev))
    (ring_script seed);
  Engine.run_until sched 2_000.;
  (Array.map List.rev traces, !delivers)

let test_ring_parity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:6
       ~name:"3-engine ring: loopback and Transport.Driver traces agree"
       QCheck2.Gen.(int_range 1 100_000)
       (fun seed ->
         let direct, delivers = run_ring ~through_driver:false seed in
         let driven, _ = run_ring ~through_driver:true seed in
         if delivers = 0 then
           QCheck2.Test.fail_reportf "seed %d: no packet crossed the ring" seed;
         Array.iteri
           (fun i trace ->
             if trace <> driven.(i) then
               QCheck2.Test.fail_reportf
                 "seed %d: engine %d traces differ (%d vs %d effects)" seed i
                 (List.length trace)
                 (List.length driven.(i)))
           direct;
         true))

let () =
  Alcotest.run "engine"
    [
      ( "sans-io",
        [
          Alcotest.test_case "seeded step is deterministic" `Quick
            test_determinism;
          Alcotest.test_case "decode dispatches by kind byte" `Quick
            test_decode_dispatch;
          Alcotest.test_case "insert then deliver (Fig. 3)" `Quick
            test_insert_then_deliver;
          test_step_total;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "hand vs Transport.Driver parity" `Quick
            test_driver_parity;
          Alcotest.test_case "one send call per step" `Quick
            test_step_sends_once;
          Alcotest.test_case "driver ticks only when a timer is due" `Quick
            test_tick_due_only;
          Alcotest.test_case "loopback ring forms + routes" `Quick
            test_loopback_ring_forms;
          test_ring_parity;
        ] );
    ]
