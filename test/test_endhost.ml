(* Properties of the pure end-host machine (I3.Endhost), with no Net and
   no socket: random seeded traces of API calls, acks, challenges, cache
   feedback and clock advances are stepped through a minimal driver that
   fires [Tick] at every [Set_timer] deadline, and the effect log is
   checked against the machine's rules. *)

module E = I3.Endhost

let config =
  { E.refresh_period_ms = 2_000.; cache_ttl_ms = 4_000.; ack_grace_ms = 5_000. }

let gateways = [ 1; 2; 3 ]
let self = 100

(* The responsible server of binding [k]: never a gateway. *)
let owner k = 50 + k

type op =
  | Advance of int  (** ms *)
  | Insert of int * bool  (** binding, sync *)
  | Remove of int
  | Ack of int  (** ack the binding's latest Insert *)
  | Challenge of int
  | Cache_info of int
  | Send of int  (** a data packet to the binding's identifier *)

let show_op = function
  | Advance ms -> Printf.sprintf "advance %d" ms
  | Insert (k, sync) -> Printf.sprintf "insert %d%s" k (if sync then " sync" else "")
  | Remove k -> Printf.sprintf "remove %d" k
  | Ack k -> Printf.sprintf "ack %d" k
  | Challenge k -> Printf.sprintf "challenge %d" k
  | Cache_info k -> Printf.sprintf "cache_info %d" k
  | Send k -> Printf.sprintf "send %d" k

let gen_trace =
  QCheck2.Gen.(
    pair (int_range 0 1_000_000)
      (list_size (int_range 1 150)
         (frequency
            [
              (6, map (fun ms -> Advance ms) (int_range 0 4_000));
              (3, map2 (fun k s -> Insert (k, s)) (int_range 0 2) bool);
              (1, map (fun k -> Remove k) (int_range 0 2));
              (4, map (fun k -> Ack k) (int_range 0 2));
              (1, map (fun k -> Challenge k) (int_range 0 2));
              (1, map (fun k -> Cache_info k) (int_range 0 2));
              (2, map (fun k -> Send k) (int_range 0 2));
            ])))

let print_trace (seed, ops) =
  Printf.sprintf "seed %d: %s" seed (String.concat "; " (List.map show_op ops))

(* One logged step: when, which op drove it (timer ticks belong to their
   [Advance]), what came out. *)
type entry = { at : float; op : op; effects : E.effect list }

let api_insert e = match e.op with Insert _ -> true | _ -> false

(* Which of the trace's bindings a trigger is. *)
let index triggers tr =
  let r = ref (-1) in
  Array.iteri (fun k t -> if I3.Trigger.same_binding t tr then r := k) triggers;
  !r

(* Run a trace; returns the effect log (oldest first) and a map from
   trigger to binding number. *)
let run (seed, ops) =
  let rng = Rng.of_int seed in
  let triggers =
    Array.init 3 (fun _ -> I3.Trigger.to_host ~id:(Id.random rng) ~owner:self)
  in
  let m = E.create ~config ~rng:(Rng.split rng) ~addr:self ~gateways () in
  let now = ref 0. and timer = ref Float.infinity and log = ref [] in
  let last_insert = Array.make 3 None in
  let step op ev =
    let effects = E.step m ~now:!now ev in
    List.iter
      (function
        | E.Set_timer at -> timer := at
        | E.Send (_, I3.Message.Insert { trigger; _ }) ->
            last_insert.(index triggers trigger) <- Some trigger
        | _ -> ())
      effects;
    if not (List.exists (function E.Set_timer _ -> true | _ -> false) effects)
    then timer := Float.infinity;
    log := { at = !now; op; effects } :: !log
  in
  List.iter
    (fun op ->
      let step = step op in
      match op with
      | Advance ms ->
          let target = !now +. float_of_int ms in
          while !timer <= target do
            now := Float.max !now !timer;
            step E.Tick
          done;
          now := target;
          step E.Tick
      | Insert (k, sync) -> step (E.Insert { trigger = triggers.(k); sync })
      | Remove k -> step (E.Remove triggers.(k))
      | Ack k -> (
          match last_insert.(k) with
          | Some trigger ->
              step (E.Frame (I3.Message.Insert_ack { trigger; server = owner k }))
          | None -> ())
      | Challenge k ->
          step
            (E.Frame
               (I3.Message.Challenge { trigger = triggers.(k); token = "tok" }))
      | Cache_info k ->
          step
            (E.Frame
               (I3.Message.Cache_info
                  { prefix = triggers.(k).I3.Trigger.id; server = owner k }))
      | Send k ->
          step
            (E.Send_packet
               (I3.Packet.make
                  ~stack:[ I3.Packet.Sid triggers.(k).I3.Trigger.id ]
                  ~payload:"x" ())))
    ops;
  (List.rev !log, index triggers)

let eps = 1e-6

(* Rule 1: a refresh Insert leaves at least one attempt timeout after
   the binding's previous attempt (challenge answers are replies, not
   attempts). *)
let paced (log, index) =
  let last = Array.make 3 Float.neg_infinity in
  List.for_all
    (fun e ->
      List.for_all
        (function
          | E.Note (E.Refresh_sent { trigger; _ }) ->
              let k = index trigger in
              let ok = e.at -. last.(k) >= E.attempt_timeout_ms -. eps in
              last.(k) <- e.at;
              ok
          | E.Send (_, I3.Message.Insert { trigger; _ }) when api_insert e ->
              last.(index trigger) <- e.at;
              true
          | _ -> true)
        e.effects)
    log

(* Rule 2: a registered binding unacked for a refresh period is never
   silent longer than one attempt timeout plus the largest backoff. *)
let live (log, index) =
  let gap = E.attempt_timeout_ms +. E.max_backoff_ms in
  let registered = Array.make 3 false
  and last_ack = Array.make 3 0.
  and last_send = Array.make 3 0. in
  List.for_all
    (fun e ->
      List.iter
        (function
          | E.Send (_, I3.Message.Insert { trigger; _ }) ->
              let k = index trigger in
              if api_insert e then begin
                registered.(k) <- true;
                last_ack.(k) <- e.at
              end;
              last_send.(k) <- e.at
          | E.Send (_, I3.Message.Remove { trigger }) ->
              registered.(index trigger) <- false
          | E.Note (E.Acked { trigger; _ }) -> last_ack.(index trigger) <- e.at
          | _ -> ())
        e.effects;
      List.for_all
        (fun k ->
          (not registered.(k))
          || e.at -. last_ack.(k) < config.refresh_period_ms +. gap
          || e.at -. last_send.(k) <= gap +. eps)
        [ 0; 1; 2 ])
    log

(* Rule 3: from the third attempt of a round on, Inserts go through a
   gateway. *)
let rehomed (log, _) =
  List.for_all
    (fun e ->
      List.for_all
        (function
          | E.Note (E.Refresh_sent { dst; attempt; _ }) ->
              attempt < 3 || List.mem dst gateways
          | _ -> true)
        e.effects)
    log

(* Rule 4: only a synchronous insert's round may give up, at most once. *)
let gives_up_only_sync (log, index) =
  let awaiting = Array.make 3 false in
  List.for_all
    (fun e ->
      (match e.op with Insert (k, sync) -> awaiting.(k) <- sync | _ -> ());
      List.for_all
        (function
          | E.Note (E.Acked { trigger; _ }) ->
              awaiting.(index trigger) <- false;
              true
          | E.Note (E.Gave_up trigger) ->
              let k = index trigger in
              let ok = awaiting.(k) in
              awaiting.(k) <- false;
              ok
          | _ -> true)
        e.effects)
    log

let show_effect = function
  | E.Send (dst, m) ->
      Printf.sprintf "send %d %s" dst
        (Digest.to_hex (Digest.string (I3.Codec.encode m)))
  | E.Deliver { payload; _ } -> "deliver " ^ payload
  | E.Note (E.Acked { server; _ }) -> Printf.sprintf "acked %d" server
  | E.Note (E.Refresh_sent { dst; attempt; _ }) ->
      Printf.sprintf "refresh %d #%d" dst attempt
  | E.Note (E.Rehomed { stale; _ }) -> Printf.sprintf "rehomed %d" stale
  | E.Note (E.Gave_up _) -> "gave up"
  | E.Set_timer at -> Printf.sprintf "timer %h" at

let render (log, _) =
  List.map
    (fun e -> (e.at, List.map show_effect e.effects))
    log

let prop name f =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 17 |])
    (QCheck2.Test.make ~count:300 ~name ~print:print_trace gen_trace f)

(* A hand-made trace that reaches every rule: an unacked sync insert
   gives up, the cached server dies and the round re-homes. *)
let test_rules_reached () =
  let ops =
    [ Insert (0, true); Advance 10_000; Ack 0; Advance 2_500; Advance 3_000 ]
  in
  let log, _ = run (7, ops) in
  let notes =
    List.concat_map
      (fun e ->
        List.filter_map (function E.Note n -> Some n | _ -> None) e.effects)
      log
  in
  let has f = List.exists f notes in
  Alcotest.(check bool) "gave up" true
    (has (function E.Gave_up _ -> true | _ -> false));
  Alcotest.(check bool) "acked by the owner" true
    (has (function E.Acked { server = 50; _ } -> true | _ -> false));
  Alcotest.(check bool) "re-homed off the owner" true
    (has (function E.Rehomed { stale = 50; _ } -> true | _ -> false))

let () =
  Alcotest.run "endhost"
    [
      ( "rules",
        [
          Alcotest.test_case "hand trace reaches every rule" `Quick
            test_rules_reached;
          prop "one refresh in flight per attempt timeout" (fun t ->
              paced (run t));
          prop "an unacked binding keeps sending" (fun t -> live (run t));
          prop "after two misses, a gateway" (fun t -> rehomed (run t));
          prop "only a synchronous insert gives up" (fun t ->
              gives_up_only_sync (run t));
          prop "same seed, same events, same effects" (fun t ->
              render (run t) = render (run t));
        ] );
    ]
