(* Host-side i3 client over real UDP: the reliability layer bin/i3d
   callers never had.

   The daemon's trigger protocol is ack'd but fire-and-forget at the
   transport: an Insert lost on the wire (or addressed to a dead server)
   simply vanishes.  This client adds the paper's end-host half of the
   robustness story (Sec. IV-C): every insert waits for its Insert_ack
   under a per-attempt timeout, retries under a jittered exponential
   backoff with a bounded budget, re-homes from the acked server back to
   a gateway when the server dies, and keeps every registered trigger
   alive by periodic refresh — which is precisely the mechanism that
   repopulates a restarted daemon's empty soft state after a crash.

   All sends go through an optional [Faulty] decorator so chaos
   scenarios exercise this exact code path; every decision the client
   takes is visible in the metrics registry ([client.retries],
   [client.timeouts], [client.gave_up], ...). *)

type config = {
  attempt_timeout_ms : float;
  max_attempts : int;
  backoff_base_ms : float;
  backoff_factor : float;
  backoff_max_ms : float;
  jitter : float;
  refresh_period_ms : float;
}

let default_config =
  {
    attempt_timeout_ms = 250.;
    max_attempts = 5;
    backoff_base_ms = 50.;
    backoff_factor = 2.;
    backoff_max_ms = 2_000.;
    jitter = 0.2;
    (* Refresh at a third of the lifetime: two refreshes may be lost
       outright before a live trigger can expire. *)
    refresh_period_ms = I3.Trigger.default_lifetime_ms /. 3.;
  }

type binding = {
  trigger : I3.Trigger.t;
  mutable last_ack : float;  (* ms clock of the latest Insert_ack, -inf if none *)
  mutable server : int option;  (* who acked last; first retry target *)
  mutable refresh_attempts : int;
      (* consecutive unacked refresh sends since the refresh came due *)
  mutable next_refresh_send : float;  (* earliest clock for the next one *)
}

type pong = { server : int; triggers : int; uptime_ms : float }

(* Engine-style visibility: every binding-lifecycle decision the client
   takes is reported as a value, so callers (and tests) observe the
   reliability machinery without scraping counters. *)
type event =
  | Acked of { trigger : I3.Trigger.t; server : int }
  | Refresh_sent of { trigger : I3.Trigger.t; dst : int }
  | Rehomed of { trigger : I3.Trigger.t; stale : int }
  | Gave_up of I3.Trigger.t

type t = {
  udp : Udp.t;
  faulty : Faulty.t option;
  rng : Rng.t;
  cfg : config;
  clock : unit -> float;
  gateways : int array;
  mutable gw : int;
  mutable bindings : binding list;
  mutable on_deliver : stack:I3.Packet.stack -> payload:string -> unit;
  mutable on_event : event -> unit;
  pongs : (int, pong) Hashtbl.t;  (* nonce -> reply *)
  c_sends : Obs.Metrics.counter;
  c_retries : Obs.Metrics.counter;
  c_timeouts : Obs.Metrics.counter;
  c_gave_up : Obs.Metrics.counter;
  c_acks : Obs.Metrics.counter;
  c_refreshes : Obs.Metrics.counter;
  c_delivers : Obs.Metrics.counter;
  c_data : Obs.Metrics.counter;
  c_decode_errors : Obs.Metrics.counter;
}

let wall_ms () = Unix.gettimeofday () *. 1000.

let handle t ~src:_ bytes =
  match I3.Codec.decode bytes with
  | Error _ -> Obs.Metrics.incr t.c_decode_errors
  | Ok (I3.Message.Insert_ack { trigger; server }) -> (
      match
        List.find_opt
          (fun b -> I3.Trigger.same_binding b.trigger trigger)
          t.bindings
      with
      | Some b ->
          Obs.Metrics.incr t.c_acks;
          b.last_ack <- t.clock ();
          b.server <- Some server;
          t.on_event (Acked { trigger = b.trigger; server })
      | None -> ())
  | Ok (I3.Message.Deliver { stack; payload; trace = _ }) ->
      Obs.Metrics.incr t.c_delivers;
      t.on_deliver ~stack ~payload
  | Ok (I3.Message.Pong { nonce; server; triggers; uptime_ms }) ->
      Hashtbl.replace t.pongs nonce { server; triggers; uptime_ms }
  | Ok _ -> ()

let create ?(metrics = Obs.Metrics.default) ?(config = default_config)
    ?(instance = "client") ?(clock = wall_ms) ?faulty ~rng ~gateways udp =
  if gateways = [] then invalid_arg "Client.create: need at least one gateway";
  let labels = [ ("instance", instance) ] in
  let c name = Obs.Metrics.counter metrics ~labels name in
  let t =
    {
      udp;
      faulty;
      rng;
      cfg = config;
      clock;
      gateways = Array.of_list gateways;
      gw = 0;
      bindings = [];
      on_deliver = (fun ~stack:_ ~payload:_ -> ());
      on_event = (fun _ -> ());
      pongs = Hashtbl.create 8;
      c_sends = c "client.sends";
      c_retries = c "client.retries";
      c_timeouts = c "client.timeouts";
      c_gave_up = c "client.gave_up";
      c_acks = c "client.acks";
      c_refreshes = c "client.refreshes";
      c_delivers = c "client.delivers";
      c_data = c "client.data_sent";
      c_decode_errors =
        Obs.Metrics.counter metrics
          ~labels:(labels @ [ ("proto", "i3") ])
          "wire.decode_errors";
    }
  in
  Udp.set_handler udp (handle t);
  t

let local_addr t = Udp.local_addr t.udp
let on_deliver t f = t.on_deliver <- f
let on_event t f = t.on_event <- f
let gateway t = t.gateways.(t.gw)
let rotate_gateway t = t.gw <- (t.gw + 1) mod Array.length t.gateways

let raw_send t ~dst bytes =
  match t.faulty with
  | Some f -> Faulty.send f ~dst bytes
  | None -> Udp.send t.udp ~dst bytes

let send_msg t ~dst m = raw_send t ~dst (I3.Codec.encode m)

(* One blocking receive step: release due delayed datagrams, then wait
   for at most [timeout] seconds of socket traffic ([Udp.wait] counts a
   signal mid-select as an empty wait). *)
let wait t ~timeout =
  (match t.faulty with Some f -> ignore (Faulty.flush f) | None -> ());
  Udp.wait t.udp ~timeout

(* Wait until [until ()] or the ms deadline; tight 20 ms slices keep the
   delay queue draining while we block. *)
let poll_until t ~deadline until =
  let rec go () =
    if until () then true
    else
      let left = deadline -. t.clock () in
      if left <= 0. then false
      else begin
        ignore (wait t ~timeout:(Float.min (left /. 1000.) 0.02));
        go ()
      end
  in
  go ()

let backoff_ms t attempt =
  let raw =
    t.cfg.backoff_base_ms *. (t.cfg.backoff_factor ** float_of_int attempt)
  in
  let capped = Float.min raw t.cfg.backoff_max_ms in
  if t.cfg.jitter <= 0. then capped
  else
    (* full-jitter style: uniform in [capped*(1-j), capped*(1+j)] *)
    let j = t.cfg.jitter in
    Rng.float_in t.rng (capped *. (1. -. j)) (capped *. (1. +. j))

let find_binding t trigger =
  List.find_opt
    (fun b -> I3.Trigger.same_binding b.trigger trigger)
    t.bindings

(* One ack-awaited insert round against [dst]: up to [max_attempts]
   sends, each with its own timeout, separated by jittered exponential
   backoff (during which we keep polling — an ack that beats the backoff
   ends the wait early). *)
let insert_round t b ~dst =
  let started = t.clock () in
  let acked () = b.last_ack >= started in
  let rec attempt i =
    if i > t.cfg.max_attempts then false
    else begin
      if i > 1 then Obs.Metrics.incr t.c_retries;
      Obs.Metrics.incr t.c_sends;
      send_msg t ~dst (I3.Message.Insert { trigger = b.trigger; token = None });
      if poll_until t ~deadline:(t.clock () +. t.cfg.attempt_timeout_ms) acked
      then true
      else begin
        Obs.Metrics.incr t.c_timeouts;
        if i = t.cfg.max_attempts then false
        else if
          (* Back off, still listening: a late ack for the in-flight
             attempt is as good as a fresh one. *)
          poll_until t ~deadline:(t.clock () +. backoff_ms t (i - 1)) acked
        then true
        else attempt (i + 1)
      end
    end
  in
  attempt 1

let insert t trigger =
  let b =
    match find_binding t trigger with
    | Some b -> b
    | None ->
        let b =
          {
            trigger;
            last_ack = Float.neg_infinity;
            server = None;
            refresh_attempts = 0;
            next_refresh_send = Float.neg_infinity;
          }
        in
        t.bindings <- b :: t.bindings;
        b
  in
  (* First round towards whoever acked last (the responsible server, a
     single hop); when that fails — typically because the server died —
     fall back to a gateway round, rotating gateways between failures.
     This is the client-side re-homing of Sec. IV-C. *)
  let rounds =
    match b.server with
    | Some s when s <> gateway t -> [ s; gateway t ]
    | _ -> [ gateway t ]
  in
  let ok = List.exists (fun dst -> insert_round t b ~dst) rounds in
  if ok then `Acked
  else begin
    Obs.Metrics.incr t.c_gave_up;
    b.server <- None;
    rotate_gateway t;
    t.on_event (Gave_up b.trigger);
    `Gave_up
  end

let remove t trigger =
  (match find_binding t trigger with
  | Some b ->
      t.bindings <- List.filter (fun b' -> b' != b) t.bindings;
      send_msg t
        ~dst:(match b.server with Some s -> s | None -> gateway t)
        (I3.Message.Remove { trigger })
  | None -> send_msg t ~dst:(gateway t) (I3.Message.Remove { trigger }));
  ()

let triggers t = List.map (fun b -> b.trigger) t.bindings

(* Soft-state maintenance, deliberately non-blocking: each call sends at
   most one refresh Insert per due binding and returns — the caller's
   loop cadence paces the retries, so a dead server can never stall the
   application (or a chaos schedule) for a retry budget.  After a server
   crash this is what re-populates the restarted daemon: the refresh
   keeps retrying forever (the binding is ours until [remove]), first at
   the server that acked last, then via a gateway — the client-side
   re-homing of Sec. IV-C, spread over calls instead of a blocking
   round. *)
let maintain_at t now =
  List.iter
    (fun b ->
      if now -. b.last_ack >= t.cfg.refresh_period_ms then begin
        if now >= b.next_refresh_send then begin
          if b.refresh_attempts = 0 then Obs.Metrics.incr t.c_refreshes
          else begin
            (* The previous refresh send went unacked a full attempt
               timeout: that's a timeout and this send is its retry. *)
            Obs.Metrics.incr t.c_timeouts;
            Obs.Metrics.incr t.c_retries
          end;
          let dst =
            match b.server with
            | Some s when b.refresh_attempts < 2 -> s
            | _ -> gateway t
          in
          (* Two misses at the acked server mean it is gone (or
             unreachable); forget it and re-home through the ring. *)
          (match b.server with
          | Some stale when b.refresh_attempts >= 2 ->
              b.server <- None;
              t.on_event (Rehomed { trigger = b.trigger; stale })
          | _ -> ());
          Obs.Metrics.incr t.c_sends;
          send_msg t ~dst
            (I3.Message.Insert { trigger = b.trigger; token = None });
          t.on_event (Refresh_sent { trigger = b.trigger; dst });
          b.refresh_attempts <- b.refresh_attempts + 1;
          b.next_refresh_send <-
            now +. t.cfg.attempt_timeout_ms
            +. backoff_ms t (Int.min (b.refresh_attempts - 1) 8)
        end
      end
      else begin
        b.refresh_attempts <- 0;
        b.next_refresh_send <- Float.neg_infinity
      end)
    t.bindings

(* The uniform transport maintenance step: drain due fault-layer
   datagrams, dispatch everything queued on the socket, then run the
   refresh state machine once.  Never blocks. *)
let poll t ~now =
  (match t.faulty with Some f -> ignore (Faulty.flush f) | None -> ());
  Udp.poll t.udp ~now;
  maintain_at t now

let maintain t = maintain_at t (t.clock ())

let send_data t ?ttl ?(trace = 0) ~stack ~payload () =
  Obs.Metrics.incr t.c_data;
  let p = I3.Packet.make ?ttl ~trace ~stack ~payload () in
  send_msg t ~dst:(gateway t) (I3.Message.Data p)

let ping t ~dst ~timeout_ms =
  let nonce = Rng.bits62 t.rng land 0xff_ffff_ffff in
  send_msg t ~dst (I3.Message.Ping { nonce });
  let got () = Hashtbl.mem t.pongs nonce in
  if poll_until t ~deadline:(t.clock () +. timeout_ms) got then begin
    let p = Hashtbl.find t.pongs nonce in
    Hashtbl.remove t.pongs nonce;
    Some p
  end
  else None

(* Run the receive/maintenance side for [duration_ms]: the idle loop of
   an end-host that only listens (flows measure delivery through the
   [on_deliver] callback). *)
let run t ~duration_ms =
  let deadline = t.clock () +. duration_ms in
  while t.clock () < deadline do
    ignore (wait t ~timeout:0.02);
    poll t ~now:(t.clock ())
  done
