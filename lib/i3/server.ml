type config = {
  trigger_lifetime : float;
  check_constraints : bool;
  challenge_hosts : bool;
  hot_spot_threshold : int option;
  hot_spot_window : float;
  replicate : bool;
}

(* Cap on how long pushed copies live at the neighbor. *)
let cache_push_lifetime = 10_000.
let sweep_period = 5_000.

let default_config =
  {
    trigger_lifetime = Trigger.default_lifetime_ms;
    check_constraints = false;
    challenge_hosts = false;
    hot_spot_threshold = None;
    hot_spot_window = 1_000.;
    replicate = false;
  }

(* Registry-backed counters, keyed [i3.<event>] with this server's
   [instance] label; drops and inserts fan out over a [cause]/[result]
   label so the registry keeps per-cause detail the old lumped record
   never had. *)
type counters = {
  c_received : Obs.Metrics.counter;
  c_forwarded : Obs.Metrics.counter;
  c_deliveries : Obs.Metrics.counter;
  c_matched : Obs.Metrics.counter;
  c_drop_ttl : Obs.Metrics.counter;
  c_drop_empty : Obs.Metrics.counter;
  c_drop_no_match : Obs.Metrics.counter;
  c_drop_dead_end : Obs.Metrics.counter;
  c_drop_overflow : Obs.Metrics.counter;
  c_ins_accepted : Obs.Metrics.counter;
  c_ins_rejected : Obs.Metrics.counter;
  c_ins_expired : Obs.Metrics.counter;
  c_challenges : Obs.Metrics.counter;
  c_pushbacks : Obs.Metrics.counter;
  c_cache_hits : Obs.Metrics.counter;
  c_cache_pushes : Obs.Metrics.counter;
}

let instances = ref 0

let make_counters metrics inst =
  let inst = ("instance", inst) in
  let counter ?(labels = []) name =
    Obs.Metrics.counter metrics ~labels:(inst :: labels) name
  in
  let drop cause = counter ~labels:[ ("cause", cause) ] "i3.drops" in
  let insert result = counter ~labels:[ ("result", result) ] "i3.inserts" in
  {
    c_received = counter "i3.data_received";
    c_forwarded = counter "i3.data_forwarded";
    c_deliveries = counter "i3.deliveries";
    c_matched = counter "i3.matched_packets";
    c_drop_ttl = drop "ttl";
    c_drop_empty = drop "empty_stack";
    c_drop_no_match = drop "no_match";
    c_drop_dead_end = drop "dead_end";
    c_drop_overflow = drop "stack_overflow";
    c_ins_accepted = insert "accepted";
    c_ins_rejected = insert "rejected";
    c_ins_expired = insert "expired";
    c_challenges = counter "i3.challenges_sent";
    c_pushbacks = counter "i3.pushbacks_sent";
    c_cache_hits = counter "i3.cache_hits";
    c_cache_pushes = counter "i3.cache_pushes";
  }

type ring_view = {
  owns : Id.t -> bool;
  next_hop : Id.t -> Packet.addr option;
  successor_addr : unit -> Packet.addr option;
  predecessor_addr : unit -> Packet.addr option;
}

(* All I/O is injected: the server never touches a network directly.
   [emit] carries every outbound message and inbound traffic arrives
   through [handle_message].  This is what keeps the Fig. 3 engine
   sans-IO: [I3.Engine] turns the sends into effects, and the same
   engine runs in [bin/i3d] and in both simulated deployments. *)
type t = {
  engine : Sim.Engine.t;
  emit : dst:Packet.addr -> Message.t -> unit;
  view : ring_view;
  id : Id.t;
  addr : Packet.addr;
  site : int;
  cfg : config;
  table : Trigger_table.t;
  cache : Trigger_table.t;
  replicas : Trigger_table.t;
  (* hot-spot accounting: identifier -> (window start, matches in window) *)
  heat : (Id.t, float * int) Hashtbl.t;
  secret : string;
  metrics : Obs.Metrics.t;
  instance : string;  (* this server's [instance] label value *)
  c : counters;
  tracer : Obs.Trace.t;
  mutable alive : bool;
  sweeper : Sim.Engine.timer;  (* periodic expiry of the three tables *)
}

let addr t = t.addr
let id t = t.id
let instance_label t = t.instance
let triggers t = t.table
let cached_triggers t = t.cache
let replica_triggers t = t.replicas
let is_alive t = t.alive

let now t = Sim.Engine.now t.engine

let trace_event t (p : Packet.t) kind =
  Obs.Trace.record t.tracer p.Packet.trace ~time:(now t) ~site:t.site kind

let is_responsible t i3_id = t.view.owns i3_id

(* Re-insert paths (replica promotion, cache pushes, replica stores) get
   their lifetimes off the wire or from a remaining-time subtraction, so
   a deadline can already be past by the time it reaches the table — a
   replicated trigger arriving after its TTL elapsed, clock skew, or the
   [now +. remaining = now] float-rounding edge.  [Trigger_table.insert]
   is total and drops these; count them so the soft-state loss shows up
   in the metrics instead of vanishing. *)
let insert_soft t table ~expires trigger =
  if not (expires > now t) then Obs.Metrics.incr t.c.c_ins_expired
  else Trigger_table.insert table ~now:(now t) ~expires trigger

let send t dst msg = t.emit ~dst msg

let forward_overlay t i3_id msg =
  match t.view.next_hop i3_id with
  | Some next ->
      Obs.Metrics.incr t.c.c_forwarded;
      (match msg with
      | Message.Data p -> trace_event t p Obs.Trace.Relay
      | _ -> ());
      send t next msg;
      true
  | None -> false

(* --- hot-spot relief (Sec. IV-F) --- *)

let push_bucket t i3_id =
  let entries = Trigger_table.bucket_entries t.table ~now:(now t) i3_id in
  if entries <> [] then begin
    let capped =
      List.map
        (fun (tr, remaining) -> (tr, Float.min remaining cache_push_lifetime))
        entries
    in
    match t.view.predecessor_addr () with
    | Some pred when pred <> t.addr ->
        Obs.Metrics.incr t.c.c_cache_pushes;
        send t pred (Message.Cache_push { triggers = capped })
    | Some _ | None -> ()
  end

let note_match t i3_id =
  match t.cfg.hot_spot_threshold with
  | None -> ()
  | Some threshold ->
      let time = now t in
      let start, count =
        match Hashtbl.find_opt t.heat i3_id with
        | Some (s, c) when time -. s <= t.cfg.hot_spot_window -> (s, c)
        | _ -> (time, 0)
      in
      let count = count + 1 in
      Hashtbl.replace t.heat i3_id (start, count);
      if count = threshold then push_bucket t i3_id

(* --- the Fig. 3 forwarding engine --- *)

let drop t (p : Packet.t) counter cause =
  Obs.Metrics.incr counter;
  trace_event t p (Obs.Trace.Drop cause)

let pushback_if_provenanced t (p : Packet.t) dead_id =
  match p.prev_trigger with
  | Some (server, trigger_id) ->
      Obs.Metrics.incr t.c.c_pushbacks;
      send t server (Message.Pushback { id = trigger_id; dead = dead_id })
  | None -> ()

let rec process_packet t (p : Packet.t) =
  if p.ttl <= 0 then drop t p t.c.c_drop_ttl "ttl"
  else
    match p.stack with
    | [] -> drop t p t.c.c_drop_empty "empty_stack"
    | Packet.Saddr a :: rest ->
        Obs.Metrics.incr t.c.c_deliveries;
        send t a
          (Message.Deliver
             { stack = rest; payload = Packet.payload_string p; trace = p.trace })
    | Packet.Sid head :: rest ->
        if is_responsible t head then serve t ~table:t.table p head rest
        else if Trigger_table.find_matches t.cache ~now:(now t) head <> []
        then begin
          Obs.Metrics.incr t.c.c_cache_hits;
          trace_event t p Obs.Trace.Cache_hit;
          serve t ~table:t.cache p head rest
        end
        else if not (forward_overlay t head (Message.Data p)) then
          (* Routing says we are responsible after all (stale view). *)
          serve t ~table:t.table p head rest

and serve t ~table (p : Packet.t) head rest =
  (* Sender-cache feedback: the responsible server reports its address so
     subsequent packets skip the overlay (Sec. IV-E). *)
  (match (p.refresh, p.sender) with
  | true, Some s ->
      send t s
        (Message.Cache_info { prefix = Id.routing_key head; server = t.addr })
  | _ -> ());
  let matches =
    match Trigger_table.find_matches table ~now:(now t) head with
    | [] when t.cfg.replicate && table == t.table ->
        (* The predecessor may have died before the owners' next refresh:
           promote any mirrored bucket for this prefix and retry. *)
        let mirrored = Trigger_table.bucket_entries t.replicas ~now:(now t) head in
        if mirrored = [] then []
        else begin
          List.iter
            (fun (tr, remaining) ->
              insert_soft t t.table ~expires:(now t +. remaining) tr)
            mirrored;
          Trigger_table.find_matches t.table ~now:(now t) head
        end
    | m -> m
  in
  match matches with
  | [] ->
      if p.match_required then begin
        pushback_if_provenanced t p head;
        drop t p t.c.c_drop_no_match "no_match"
      end
      else if rest = [] then begin
        (* Dead end: the chain that sent us here leads nowhere. *)
        pushback_if_provenanced t p head;
        drop t p t.c.c_drop_dead_end "dead_end"
      end
      else process_packet t { p with stack = rest }
  | matches ->
      Obs.Metrics.incr t.c.c_matched;
      trace_event t p Obs.Trace.Trigger_match;
      note_match t head;
      List.iter
        (fun (tr : Trigger.t) ->
          let stack = tr.Trigger.stack @ rest in
          if List.length stack > Packet.max_stack_depth then
            drop t p t.c.c_drop_overflow "stack_overflow"
          else
            process_packet t
              {
                p with
                stack;
                prev_trigger = Some (t.addr, tr.Trigger.id);
                ttl = p.ttl - 1;
              })
        matches

(* --- control traffic --- *)

let accept_insert t (trigger : Trigger.t) =
  Trigger_table.insert t.table ~now:(now t)
    ~expires:(now t +. t.cfg.trigger_lifetime)
    trigger;
  Obs.Metrics.incr t.c.c_ins_accepted;
  (if t.cfg.replicate then
     match t.view.successor_addr () with
     | Some succ when succ <> t.addr ->
         send t succ
           (Message.Replica { trigger; lifetime = t.cfg.trigger_lifetime })
     | Some _ | None -> ());
  send t trigger.Trigger.owner
    (Message.Insert_ack { trigger; server = t.addr });
  (* Keep pushed copies coherent while the identifier is hot. *)
  match t.cfg.hot_spot_threshold with
  | Some threshold -> (
      match Hashtbl.find_opt t.heat trigger.Trigger.id with
      | Some (_, c) when c >= threshold -> push_bucket t trigger.Trigger.id
      | _ -> ())
  | None -> ()

let handle_insert t (trigger : Trigger.t) token =
  if not (is_responsible t trigger.Trigger.id) then
    ignore (forward_overlay t trigger.Trigger.id (Message.Insert { trigger; token }))
  else
    match
      Security.vet ~check_constraints:t.cfg.check_constraints
        ~challenge_hosts:t.cfg.challenge_hosts ~secret:t.secret ~token trigger
    with
    | Security.Accept -> accept_insert t trigger
    | Security.Reject_constraint -> Obs.Metrics.incr t.c.c_ins_rejected
    | Security.Needs_challenge -> (
        match trigger.Trigger.stack with
        | Packet.Saddr target :: _ ->
            Obs.Metrics.incr t.c.c_challenges;
            let token =
              Security.challenge_token ~secret:t.secret
                ~id:trigger.Trigger.id ~target
            in
            send t target (Message.Challenge { trigger; token })
        | _ -> Obs.Metrics.incr t.c.c_ins_rejected)

let handle_remove t (trigger : Trigger.t) =
  if not (is_responsible t trigger.Trigger.id) then
    ignore (forward_overlay t trigger.Trigger.id (Message.Remove { trigger }))
  else ignore (Trigger_table.remove t.table trigger)

let handle_cache_push t entries =
  let time = now t in
  List.iter
    (fun ((tr : Trigger.t), remaining) ->
      insert_soft t t.cache ~expires:(time +. remaining) tr)
    entries

let handle_pushback t ~id ~dead =
  let removed =
    Trigger_table.remove_matching t.table ~id ~target:dead
    + Trigger_table.remove_matching t.cache ~id ~target:dead
  in
  ignore removed

let handle_packet t p = if t.alive then process_packet t p

let handle t ~src (msg : Message.t) =
  if t.alive then
    match msg with
    | Message.Data p ->
        Obs.Metrics.incr t.c.c_received;
        process_packet t p
    | Message.Insert { trigger; token } -> handle_insert t trigger token
    | Message.Remove { trigger } -> handle_remove t trigger
    | Message.Cache_push { triggers } -> handle_cache_push t triggers
    | Message.Pushback { id; dead } -> handle_pushback t ~id ~dead
    | Message.Replica { trigger; lifetime } ->
        insert_soft t t.replicas ~expires:(now t +. lifetime) trigger
    | Message.Ping { nonce } ->
        send t src
          (Message.Pong
             {
               nonce;
               server = t.addr;
               triggers = Trigger_table.size t.table;
               uptime_ms = now t;
             })
    | Message.Challenge _ | Message.Insert_ack _ | Message.Cache_info _
    | Message.Deliver _ | Message.Pong _ ->
        (* Host-bound control traffic; not for servers. *)
        ()
    | Message.Stats_request _ | Message.Stats_response _ ->
        (* Telemetry is answered above the server: I3.Engine intercepts
           stats requests (it owns the registry-wide view, timer wheel
           and Chord introspection); a bare sim server has no scraper. *)
        ()

let handle_message = handle

let create ~engine ~addr ~emit ~view ?(site = 0) ~id
    ?(config = default_config) ?(metrics = Obs.Metrics.default)
    ?(tracer = Obs.Trace.disabled) () =
  incr instances;
  let instance = "srv" ^ string_of_int !instances in
  let table = Trigger_table.create ()
  and cache = Trigger_table.create ()
  and replicas = Trigger_table.create () in
  let sweeper =
    Sim.Engine.every engine ~period:sweep_period (fun () ->
        let now = Sim.Engine.now engine in
        ignore (Trigger_table.expire table ~now);
        ignore (Trigger_table.expire cache ~now);
        ignore (Trigger_table.expire replicas ~now))
  in
  {
    engine;
    emit;
    view;
    id;
    addr;
    site;
    cfg = config;
    table;
    cache;
    replicas;
    heat = Hashtbl.create 64;
    secret = Sha256.digest ("i3-server-secret:" ^ Id.to_raw_string id);
    metrics;
    instance;
    c = make_counters metrics instance;
    tracer;
    alive = true;
    sweeper;
  }

let view t = t.view

let kill t =
  t.alive <- false;
  (* A dead server must not leave its sweep behind on its wheel. *)
  Sim.Engine.cancel t.sweeper;
  (* A dead process exports nothing: deregister this instance's samples
     so snapshots and the health monitor don't read ghost values frozen
     at their pre-crash counts. *)
  Obs.Metrics.remove_where t.metrics (fun ~name:_ ~labels ->
      List.mem ("instance", t.instance) labels)
