type peer = Finger_table.peer = { id : Id.t; addr : int }

type config = {
  stabilize_period : float;
  fix_fingers_period : float;
  fingers_per_round : int;
  rpc_timeout : float;
  max_lookup_hops : int;
}

let default_config =
  {
    stabilize_period = 30_000.;
    fix_fingers_period = 10_000.;
    fingers_per_round = 32;
    rpc_timeout = 1_000.;
    max_lookup_hops = 64;
  }

(* Successors each node keeps to survive failures. *)
let successor_list_length = 8

type step_result = Done of peer | Next of peer

type msg =
  | Lookup_step of { key : Id.t; token : int; reply_to : int }
  | Lookup_reply of { token : int; result : step_result }
  | Get_state of { token : int; reply_to : int }
  | State of { token : int; self : peer; pred : peer option; succs : peer list }
  | Notify of { who : peer; chain : peer list }
      (* the notifier piggybacks its successor chain: cheap anti-entropy
         that lets a node stranded in a parasite sub-ring discover its
         true successor and merge back (see handle_notify) *)

type pending =
  | Plookup of {
      key : Id.t;
      mutable hops : int;
      mutable asking : peer;
      callback : peer option -> unit;
      started : float;
      span : Obs.Trace.op;  (* root: the whole iterative lookup *)
      mutable rpc : Obs.Trace.op;  (* child: the in-flight step *)
    }
  | Pstabilize of { asking : peer; span : Obs.Trace.op }
  | Pprobe of { buried : peer; span : Obs.Trace.op }

type node = {
  engine : Engine.t;
  emit : dst:int -> msg -> unit;
  cfg : config;
  rng : Rng.t;
  mutable tokens : int;
  spans : Obs.Trace.t;
  c_lookups : Obs.Metrics.counter;
  c_failures : Obs.Metrics.counter;
  c_timeouts : Obs.Metrics.counter;
  c_probes : Obs.Metrics.counter;
  c_ring_changes : Obs.Metrics.counter;
  h_hops : Obs.Metrics.histogram;
  h_lookup_ms : Obs.Metrics.histogram;
  id : Id.t;
  addr : int;
  fingers : Finger_table.t;
  mutable pred : peer option;
  mutable succs : peer list;
  mutable alive : bool;
  mutable next_fix : int;
  mutable pred_heard : float;
  mutable last_succ : int;  (* successor addr at last stabilize; -1 = none *)
  pending : (int, pending) Hashtbl.t;
  suspicion : (int, int) Hashtbl.t; (* peer addr -> consecutive timeouts *)
  graveyard : (int, peer) Hashtbl.t;
      (* peers evicted as dead, kept for rediscovery probes: a healed
         partition or a restarted server must be able to knit the ring
         back together, which pure forgetting makes impossible *)
  contacts : (int, peer) Hashtbl.t;
      (* every peer ever learned of, never overwritten by ring state:
         the last-resort address book for [rejoin_probe].  Fingers and
         successor lists self-destruct when a node is stranded (each
         fix-fingers round re-resolves them inside whatever sub-ring the
         node is trapped in), so durable contacts are the only way back *)
  mutable timers : Engine.timer list;
}

let ring_label = "ring"

let pending_rpcs n = Hashtbl.length n.pending

let node_id n = n.id
let node_addr n = n.addr
let is_alive n = n.alive

let self_peer n = { id = n.id; addr = n.addr }

let successor n = match n.succs with [] -> None | p :: _ -> Some p
let predecessor n = n.pred

let fresh_token n =
  n.tokens <- n.tokens + 1;
  n.tokens

(* A killed node is silent: timeouts still queued on the scheduler must
   not make it talk again. *)
let send n dst msg = if n.alive then n.emit ~dst msg

let notify n dst = send n dst (Notify { who = self_peer n; chain = n.succs })

let remember n (p : peer) =
  if p.addr <> n.addr then Hashtbl.replace n.contacts p.addr p

(* A single lost datagram must not evict a live peer: only forget after
   several consecutive unanswered RPCs (any received message resets the
   count). *)
let suspicion_threshold = 3

(* Remove a peer everywhere after a timeout marked it dead — but bury it
   in the graveyard so rediscovery probes can find it again. *)
let forget_peer n addr =
  let bury (p : peer) =
    if p.addr = addr then Hashtbl.replace n.graveyard addr p
  in
  List.iter bury n.succs;
  (match n.pred with Some p -> bury p | None -> ());
  for i = 0 to Finger_table.slots n.fingers - 1 do
    match Finger_table.get n.fingers i with Some p -> bury p | None -> ()
  done;
  n.succs <- List.filter (fun (p : peer) -> p.addr <> addr) n.succs;
  for i = 0 to Finger_table.slots n.fingers - 1 do
    match Finger_table.get n.fingers i with
    | Some p when p.addr = addr -> Finger_table.set n.fingers i None
    | _ -> ()
  done;
  match n.pred with
  | Some p when p.addr = addr -> n.pred <- None
  | _ -> ()

let suspect n addr =
  let count = 1 + Option.value ~default:0 (Hashtbl.find_opt n.suspicion addr) in
  if count >= suspicion_threshold then begin
    Hashtbl.remove n.suspicion addr;
    forget_peer n addr
  end
  else Hashtbl.replace n.suspicion addr count

(* Best next node to interrogate for [key], from local state. *)
let local_candidate n key =
  let extra = n.succs in
  match Finger_table.closest_preceding n.fingers ~extra key with
  | Some p -> Some p
  | None -> successor n

let owns n key =
  match n.pred with
  | Some p -> Ring.between_oc ~low:p.id ~high:n.id key
  | None -> n.succs = []

let local_next_hop n key =
  if owns n key then None
  else
    match Finger_table.closest_preceding n.fingers ~extra:n.succs key with
    | Some p -> Some p
    | None -> successor n

let finish_lookup n token result =
  match Hashtbl.find_opt n.pending token with
  | Some (Plookup l) ->
      Hashtbl.remove n.pending token;
      let now = Engine.now n.engine in
      (match result with
      | Some _ ->
          Obs.Metrics.observe n.h_hops (float_of_int l.hops);
          Obs.Metrics.observe n.h_lookup_ms (now -. l.started);
          Obs.Trace.close_op n.spans ~time:now l.span
      | None ->
          Obs.Metrics.incr n.c_failures;
          Obs.Trace.close_op n.spans ~status:"error:exhausted" ~time:now
            l.span);
      l.callback result
  | _ -> ()

let rec lookup_ask n token =
  match Hashtbl.find_opt n.pending token with
  | Some (Plookup l) ->
      if l.hops > n.cfg.max_lookup_hops then
        finish_lookup n token None
      else begin
        let asked = l.asking in
        let now = Engine.now n.engine in
        let spans = n.spans in
        let rpc =
          Obs.Trace.open_op spans ~parent:(Obs.Trace.op_id l.span) ~time:now
            "chord.rpc"
        in
        Obs.Trace.note spans rpc ~time:now
          (Printf.sprintf "ask addr=%d hop=%d" asked.addr l.hops);
        l.rpc <- rpc;
        send n asked.addr (Lookup_step { key = l.key; token; reply_to = n.addr });
        Engine.schedule n.engine ~delay:n.cfg.rpc_timeout
          (fun () -> lookup_timeout n token asked)
      end
  | _ -> ()

and lookup_timeout n token asked =
  match Hashtbl.find_opt n.pending token with
  | Some (Plookup l) when l.asking.addr = asked.addr ->
      (* Peer did not answer: raise suspicion and retry — possibly the same
         peer, since the silence may just be loss. *)
      Obs.Metrics.incr n.c_timeouts;
      let now = Engine.now n.engine in
      Obs.Trace.note n.spans l.rpc ~time:now "timeout; retrying";
      Obs.Trace.close_op n.spans ~status:"timeout" ~time:now l.rpc;
      suspect n asked.addr;
      l.hops <- l.hops + 1;
      (match local_candidate n l.key with
      | Some p ->
          l.asking <- p;
          lookup_ask n token
      | None -> finish_lookup n token None)
  | _ -> ()

let lookup n key callback =
  if not n.alive then
    Engine.schedule n.engine ~delay:0. (fun () -> callback None)
  else begin
    Obs.Metrics.incr n.c_lookups;
    let now = Engine.now n.engine in
    let finish_immediate span =
      Obs.Metrics.observe n.h_hops 0.;
      Obs.Metrics.observe n.h_lookup_ms 0.;
      Obs.Trace.close_op n.spans ~time:now span
    in
    match successor n with
    | None ->
        (* Alone on the ring: every key is ours. *)
        let span = Obs.Trace.open_op n.spans ~time:now "chord.lookup" in
        finish_immediate span;
        Engine.schedule n.engine ~delay:0. (fun () ->
            callback (Some (self_peer n)))
    | Some succ ->
        if Ring.between_oc ~low:n.id ~high:succ.id key then begin
          let span = Obs.Trace.open_op n.spans ~time:now "chord.lookup" in
          finish_immediate span;
          Engine.schedule n.engine ~delay:0. (fun () -> callback (Some succ))
        end
        else begin
          let token = fresh_token n in
          let asking =
            match Finger_table.closest_preceding n.fingers ~extra:n.succs key with
            | Some p -> p
            | None -> succ
          in
          let span = Obs.Trace.open_op n.spans ~time:now "chord.lookup" in
          Hashtbl.replace n.pending token
            (Plookup
               {
                 key;
                 hops = 0;
                 asking;
                 callback;
                 started = now;
                 span;
                 rpc = Obs.Trace.null_op;
               });
          lookup_ask n token
        end
  end

(* ---- message handling ---- *)

let handle_lookup_step n ~key ~token ~reply_to =
  let result =
    match successor n with
    | None -> Done (self_peer n)
    | Some succ ->
        if Ring.between_oc ~low:n.id ~high:succ.id key then Done succ
        else begin
          match Finger_table.closest_preceding n.fingers ~extra:n.succs key with
          | Some p -> Next p
          | None -> Next succ
        end
  in
  send n reply_to (Lookup_reply { token; result })

let handle_lookup_reply n ~token ~result =
  (match result with Done p | Next p -> remember n p);
  match Hashtbl.find_opt n.pending token with
  | Some (Plookup l) -> (
      Obs.Trace.close_op n.spans
        ~time:(Engine.now n.engine)
        l.rpc;
      match result with
      | Done p -> finish_lookup n token (Some p)
      | Next p ->
          l.hops <- l.hops + 1;
          if p.addr = n.addr || p.addr = l.asking.addr then
            (* No progress: our interlocutor's best guess is us or itself. *)
            finish_lookup n token (Some l.asking)
          else begin
            l.asking <- p;
            lookup_ask n token
          end)
  | _ -> ()

let truncate_succs l =
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  take successor_list_length l

let handle_state n ~token ~(self : peer) ~(pred : peer option)
    ~(succs : peer list) =
  remember n self;
  Option.iter (remember n) pred;
  List.iter (remember n) succs;
  match Hashtbl.find_opt n.pending token with
  | Some (Pprobe { buried; span }) ->
      Obs.Trace.close_op n.spans
        ~time:(Engine.now n.engine)
        span;
      (* A probed peer answered: it recovered, a partition healed, or it
         is a bootstrap contact we only knew by address.  [self] is the
         authoritative identity (a probe sent by address alone carries a
         placeholder id in [buried]); re-integrate it exactly as a
         stabilize round would — adopt it as successor if it sits
         between us and our current successor, and notify it of us —
         then let normal stabilization refine the rest.  This is what
         knits two healed half-rings back into one. *)
      Hashtbl.remove n.pending token;
      Hashtbl.remove n.graveyard buried.addr;
      Hashtbl.remove n.suspicion buried.addr;
      Hashtbl.remove n.graveyard self.addr;
      Hashtbl.remove n.suspicion self.addr;
      ignore pred;
      if self.addr <> n.addr then begin
        let chain = List.filter (fun (p : peer) -> p.addr <> n.addr) succs in
        (match successor n with
        | None -> n.succs <- truncate_succs (self :: chain)
        | Some succ when Ring.between_oo ~low:n.id ~high:succ.id self.id ->
            n.succs <- truncate_succs (self :: n.succs)
        | Some _ -> ());
        notify n self.addr
      end
  | Some (Pstabilize { asking; span }) ->
      Hashtbl.remove n.pending token;
      (* Adopt a closer successor if our successor's predecessor is between
         us and it. *)
      let new_succ =
        match pred with
        | Some p
          when p.addr <> n.addr
               && Ring.between_oo ~low:n.id ~high:asking.id p.id ->
            p
        | _ -> asking
      in
      let chain = List.filter (fun (p : peer) -> p.addr <> n.addr) succs in
      n.succs <- truncate_succs (new_succ :: chain);
      let now = Engine.now n.engine in
      Obs.Trace.note n.spans span ~time:now
        (Printf.sprintf "notify addr=%d" new_succ.addr);
      Obs.Trace.close_op n.spans ~time:now span;
      notify n new_succ.addr
  | _ -> ()

(* Ask [p] for its state with a [Pprobe] token: if it answers it is alive
   and [handle_state] re-integrates it (adopting it as successor when it
   sits between us and our current one); if it is dead the probe times out
   quietly.  Used for graveyard rediscovery and to vet gossiped peers. *)
let probe_peer n (p : peer) =
  Obs.Metrics.incr n.c_probes;
  let token = fresh_token n in
  let span =
    Obs.Trace.open_op n.spans
      ~time:(Engine.now n.engine)
      "chord.probe"
  in
  Hashtbl.replace n.pending token (Pprobe { buried = p; span });
  send n p.addr (Get_state { token; reply_to = n.addr });
  Engine.schedule n.engine ~delay:n.cfg.rpc_timeout (fun () ->
      match Hashtbl.find_opt n.pending token with
      | Some (Pprobe { span; _ }) ->
          Hashtbl.remove n.pending token;
          Obs.Trace.close_op n.spans ~status:"timeout"
            ~time:(Engine.now n.engine)
            span
      | _ -> ())

(* Probe a peer known only by transport address (a bootstrap contact
   from the command line, before any protocol exchange): the [State]
   reply carries the peer's authoritative identity, and the [Pprobe]
   arm of [handle_state] integrates it — this is how a detached daemon
   joins a live ring.  The placeholder id is never trusted: probe
   bookkeeping is keyed by address. *)
let probe_addr n addr =
  if addr <> n.addr then probe_peer n { id = n.id; addr }

let handle_notify n ~(who : peer) ~(chain : peer list) =
  if who.addr <> n.addr then begin
    remember n who;
    List.iter (remember n) chain;
    Hashtbl.remove n.graveyard who.addr;
    (* A node alone on the ring adopts its first notifier as successor,
       closing the two-node ring. *)
    if n.succs = [] then n.succs <- [ who ];
    (match n.pred with
    | None -> n.pred <- Some who
    | Some p ->
        if Ring.between_oo ~low:p.id ~high:n.id who.id then n.pred <- Some who);
    (match n.pred with
    | Some p when p.addr = who.addr ->
        n.pred_heard <- Engine.now n.engine
    | _ -> ());
    (* Anti-entropy: the notifier piggybacks its successor chain; any
       member strictly closer than our successor is a candidate merge
       point.  A node stranded in a parasite sub-ring (its successor
       skips part of the true ring) is repaired the first time a
       main-ring member notifies it — without this, two healed sub-rings
       can coexist forever.  [who] itself is provably alive (we just
       received from it) and is adopted directly; chain members may be
       stale, so they are only probed and adopted if they answer. *)
    (match successor n with
    | None -> n.succs <- [ who ]
    | Some succ ->
        if Ring.between_oo ~low:n.id ~high:succ.id who.id then
          n.succs <- truncate_succs (who :: n.succs));
    List.iter
      (fun (p : peer) ->
        if p.addr <> n.addr then
          match successor n with
          | None -> probe_peer n p
          | Some succ ->
              if Ring.between_oo ~low:n.id ~high:succ.id p.id then
                probe_peer n p)
      chain
  end

let handle n ~src msg =
  if n.alive then begin
    Hashtbl.remove n.suspicion src;
    match msg with
    | Lookup_step { key; token; reply_to } ->
        handle_lookup_step n ~key ~token ~reply_to
    | Lookup_reply { token; result } -> handle_lookup_reply n ~token ~result
    | Get_state { token; reply_to } ->
        (match n.pred with
        | Some p when p.addr = src ->
            n.pred_heard <- Engine.now n.engine
        | _ -> ());
        send n reply_to
          (State { token; self = self_peer n; pred = n.pred; succs = n.succs })
    | State { token; self; pred; succs } ->
        handle_state n ~token ~self ~pred ~succs
    | Notify { who; chain } -> handle_notify n ~who ~chain
  end

(* ---- periodic maintenance ---- *)

(* Once per stabilize round, ping one random buried peer.  Probes to the
   truly dead cost one datagram and time out quietly; probes to a
   recovered peer (or across a healed partition) trigger ring merge via
   the [Pprobe] path of [handle_state]. *)
let probe_graveyard n =
  if Hashtbl.length n.graveyard > 0 then begin
    let arr = Array.of_seq (Hashtbl.to_seq_values n.graveyard) in
    probe_peer n (Rng.choose n.rng arr)
  end

(* Last-resort anti-stranding repair, run while the node's ring state
   looks degraded (no predecessor, or a short successor list): re-run the
   join lookup for our own id through a random remembered contact and
   adopt the answer if it improves our successor.  A node whose every
   ring neighbor died before stabilization integrated it — or that got
   trapped with other strays in a self-consistent parasite sub-ring — is
   invisible to the main ring, so no inbound probe or gossip can ever
   reach it; its contact log is the one thing that still points outside
   the island, and a single live contact suffices to find the true
   successor.  On an already-integrated node the lookup resolves to the
   node itself and the probe is a no-op. *)
let rejoin_probe n =
  if Hashtbl.length n.contacts > 0 then begin
    Obs.Metrics.incr n.c_lookups;
    let arr = Array.of_seq (Hashtbl.to_seq_values n.contacts) in
    let c = Rng.choose n.rng arr in
    let callback = function
      | Some (p : peer) when p.addr <> n.addr ->
          Hashtbl.remove n.graveyard p.addr;
          (match successor n with
          | None -> n.succs <- [ p ]
          | Some succ ->
              if Ring.between_oo ~low:n.id ~high:succ.id p.id then
                n.succs <- truncate_succs (p :: n.succs));
          notify n p.addr
      | _ -> ()
    in
    let now = Engine.now n.engine in
    let span = Obs.Trace.open_op n.spans ~time:now "chord.lookup" in
    Obs.Trace.note n.spans span ~time:now "rejoin probe";
    let token = fresh_token n in
    Hashtbl.replace n.pending token
      (Plookup
         {
           key = n.id;
           hops = 0;
           asking = c;
           callback;
           started = now;
           span;
           rpc = Obs.Trace.null_op;
         });
    lookup_ask n token
  end

let stabilize n =
  if n.alive then begin
    (* Sample successor-pointer churn once per round: a converged ring
       holds every pointer steady, so the network-wide rate of
       [chord.ring_changes] is an in-band convergence signal the health
       monitor can watch without oracle access. *)
    (let cur =
       match successor n with Some (p : peer) -> p.addr | None -> -1
     in
     if cur <> n.last_succ then begin
       Obs.Metrics.incr n.c_ring_changes;
       n.last_succ <- cur
     end);
    probe_graveyard n;
    if
      n.pred = None
      || List.length n.succs < successor_list_length
    then rejoin_probe n;
    (* Expire a silent predecessor so a replacement can be accepted. *)
    let now = Engine.now n.engine in
    (match n.pred with
    | Some _
      when now -. n.pred_heard > 3. *. n.cfg.stabilize_period +. 1. ->
        n.pred <- None
    | _ -> ());
    match successor n with
    | None -> (
        (* Lost the whole successor list (e.g. repeated false suspicions):
           reconnect through the predecessor if we still have one. *)
        match n.pred with
        | Some p ->
            n.succs <- [ p ];
            notify n p.addr
        | None -> ())
    | Some succ ->
        let token = fresh_token n in
        let span =
          Obs.Trace.open_op n.spans ~time:now "chord.stabilize"
        in
        Obs.Trace.note n.spans span ~time:now
          (Printf.sprintf "get_state addr=%d" succ.addr);
        Hashtbl.replace n.pending token (Pstabilize { asking = succ; span });
        send n succ.addr (Get_state { token; reply_to = n.addr });
        Engine.schedule n.engine ~delay:n.cfg.rpc_timeout
          (fun () ->
            match Hashtbl.find_opt n.pending token with
            | Some (Pstabilize { asking; span }) ->
                Hashtbl.remove n.pending token;
                Obs.Metrics.incr n.c_timeouts;
                Obs.Trace.close_op n.spans ~status:"timeout"
                  ~time:(Engine.now n.engine)
                  span;
                suspect n asking.addr
            | _ -> ())
  end

let fix_fingers n =
  if n.alive then
    for _ = 1 to n.cfg.fingers_per_round do
      let i = n.next_fix in
      n.next_fix <- (n.next_fix + 1) mod Finger_table.slots n.fingers;
      let target = Finger_table.target n.fingers i in
      lookup n target (function
        | Some p when p.addr <> n.addr -> Finger_table.set n.fingers i (Some p)
        | Some _ -> Finger_table.set n.fingers i None
        | None -> ())
    done

let start_timers n =
  let jitter = Rng.float n.rng n.cfg.stabilize_period in
  n.timers <-
    [
      Engine.every n.engine ~phase:jitter ~period:n.cfg.stabilize_period
        (fun () -> stabilize n);
      Engine.every n.engine
        ~phase:(Rng.float n.rng n.cfg.fix_fingers_period)
        ~period:n.cfg.fix_fingers_period
        (fun () -> fix_fingers n);
    ]

(* A node at [addr].  With no [contacts] it is the first node of a
   fresh ring (its own successor).  With contacts it joins by address:
   it probes them at once, then keeps retrying every other RPC timeout
   while still alone — contacts may not be up yet (cluster cold start)
   or may have been lost to a partition. *)
let create ?(metrics = Obs.Metrics.default) ?(spans = Obs.Trace.disabled)
    engine ~rng ?(config = default_config) ~emit ?id ~addr ~contacts () =
  let id =
    match id with Some i -> i | None -> Id.routing_key (Id.random rng)
  in
  (* Registration is idempotent per name and labels, so every node on a
     registry adds to the same ring-wide series. *)
  let labels = [ ("instance", ring_label) ] in
  let counter name = Obs.Metrics.counter metrics ~labels name in
  let n =
    {
      engine;
      emit;
      cfg = config;
      rng;
      tokens = 0;
      spans;
      c_lookups = counter "chord.lookups";
      c_failures = counter "chord.lookup_failures";
      c_timeouts = counter "chord.rpc_timeouts";
      c_probes = counter "chord.probes_sent";
      c_ring_changes = counter "chord.ring_changes";
      h_hops =
        Obs.Metrics.histogram metrics ~labels "chord.lookup_hops"
          ~buckets:(Obs.Metrics.linear_buckets ~start:0. ~width:1. ~count:33);
      h_lookup_ms =
        Obs.Metrics.histogram metrics ~labels "chord.lookup_ms"
          ~buckets:
            (Obs.Metrics.exponential_buckets ~start:1. ~factor:2. ~count:14);
      id;
      addr;
      fingers = Finger_table.create ~self:id;
      pred = None;
      succs = [];
      alive = true;
      next_fix = 0;
      pred_heard = Engine.now engine;
      last_succ = -1;
      pending = Hashtbl.create 16;
      suspicion = Hashtbl.create 8;
      graveyard = Hashtbl.create 8;
      contacts = Hashtbl.create 8;
      timers = [];
    }
  in
  start_timers n;
  if contacts <> [] then begin
    let probe_contacts () = List.iter (probe_addr n) contacts in
    Engine.schedule engine ~delay:0. probe_contacts;
    n.timers <-
      Engine.every engine ~period:(2. *. config.rpc_timeout) (fun () ->
          if n.alive && successor n = None then probe_contacts ())
      :: n.timers
  end;
  n

let kill n =
  n.alive <- false;
  List.iter Engine.cancel n.timers;
  n.timers <- []
