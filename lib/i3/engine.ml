(* The sans-IO protocol engine: one i3 server fused with its ring (a
   live Chord node, or a static view) behind a pure state-machine API.
   All I/O is data — inputs are [event]s stamped with the caller's
   clock (frames as a peer or host sent them, or a bare tick: nothing
   else reaches a node), outputs are [effect]s the caller interprets —
   so the exact same core runs under the simulated scheduler, over real
   UDP sockets in [bin/i3d], or inside a deterministic unit test that
   just pattern-matches the effect list.

   Internally the engine owns a private [Sim.Engine] wheel: every timer
   the server (soft-state sweeps) or the protocol (stabilize,
   fix-fingers, RPC timeouts) would schedule in simulation lands on that
   wheel, and [step] advances it to the caller's [now] before
   dispatching.  The caller never sees the wheel — only the [Set_timer]
   effect telling it when to call [step ~now Tick] again at the
   latest. *)

type frame =
  | I3 of Message.t
  | Chord of Chord.Protocol.msg

type event =
  | Frame of { src : Packet.addr; frame : frame }
  | Batch of event list
  | Tick

type effect =
  | Send of Packet.addr * Message.t
  | Chord_send of Packet.addr * Chord.Protocol.msg
  | Deliver of {
      dst : Packet.addr;
      stack : Packet.stack;
      payload : string;
      trace : int;
    }
  | Set_timer of float

(* A live ring is this node's Chord state; a static one has no Chord
   node, so Chord frames that reach it are dropped and counted. *)
type ring = Live of Chord.Protocol.node | Static of Obs.Metrics.counter

type t = {
  wheel : Sim.Engine.t;
  mutable started : bool;  (* has any [step] set the wheel's clock yet? *)
  outbox : effect Queue.t;
  server : Server.t;
  ring : ring;
  metrics : Obs.Metrics.t;
  tracer : Obs.Trace.t;
  c_events : Obs.Metrics.counter;
  c_effects : Obs.Metrics.counter;
  h_batch : Obs.Metrics.histogram;
  g_wheel_depth : Obs.Metrics.gauge;
  g_pending_rpcs : Obs.Metrics.gauge;
  g_triggers : Obs.Metrics.gauge;
}

(* A joined node's ring view is its Chord node's local state; chord and
   data traffic share one transport address per daemon, so peer
   addresses translate 1:1. *)
let view_for node =
  let peer_addr (p : Chord.Protocol.peer) = p.addr in
  {
    Server.owns = (fun id -> Chord.Protocol.owns node (Id.routing_key id));
    next_hop =
      (fun id ->
        Option.map peer_addr
          (Chord.Protocol.local_next_hop node (Id.routing_key id)));
    successor_addr =
      (fun () -> Option.map peer_addr (Chord.Protocol.successor node));
    predecessor_addr =
      (fun () -> Option.map peer_addr (Chord.Protocol.predecessor node));
  }

let batch_buckets = [| 0.; 1.; 2.; 3.; 4.; 6.; 8.; 12.; 16.; 24.; 32.; 64. |]

(* The one body both constructors share. *)
let make ~wheel ~outbox ~addr ~id ~node ~view ~site ?config ~metrics ?tracer
    () =
  let server =
    Server.create ~engine:wheel ~addr
      ~emit:(fun ~dst msg ->
        match msg with
        | Message.Deliver { stack; payload; trace } ->
            (* Host-bound payload gets its own effect so drivers can
               count/route deliveries without decoding. *)
            Queue.add (Deliver { dst; stack; payload; trace }) outbox
        | msg -> Queue.add (Send (dst, msg)) outbox)
      ~view ~site ~id ?config ~metrics ?tracer ()
  in
  let labels = [ ("instance", Server.instance_label server) ] in
  let ring =
    match node with
    | Some node -> Live node
    | None ->
        Static (Obs.Metrics.counter metrics ~labels "engine.chord_dropped")
  in
  {
    wheel;
    started = false;
    outbox;
    server;
    ring;
    metrics;
    tracer = Option.value ~default:Obs.Trace.disabled tracer;
    c_events = Obs.Metrics.counter metrics ~labels "engine.events";
    c_effects = Obs.Metrics.counter metrics ~labels "engine.effects";
    h_batch =
      Obs.Metrics.histogram metrics ~labels ~buckets:batch_buckets
        "engine.effect_batch";
    g_wheel_depth = Obs.Metrics.gauge metrics ~labels "engine.wheel_depth";
    g_pending_rpcs = Obs.Metrics.gauge metrics ~labels "engine.pending_rpcs";
    g_triggers = Obs.Metrics.gauge metrics ~labels "engine.triggers";
  }

let create ?(seed = 1) ~addr ?id ?(join = []) ?(site = 0) ?config
    ?(chord_config = Chord.Protocol.default_config)
    ?(metrics = Obs.Metrics.default) ?tracer ?spans () =
  let wheel = Sim.Engine.create () in
  let rng = Rng.of_int seed in
  let outbox = Queue.create () in
  (* The node's stream splits off before the id draw: daemons and
     simulations draw in this order, seed for seed. *)
  let chord_rng = Rng.split rng in
  let id =
    match id with Some i -> i | None -> Id.routing_key (Id.random rng)
  in
  let node =
    Chord.Protocol.create ~metrics ?spans wheel ~rng:chord_rng
      ~config:chord_config
      ~emit:(fun ~dst msg -> Queue.add (Chord_send (dst, msg)) outbox)
      ~id ~addr ~contacts:join ()
  in
  make ~wheel ~outbox ~addr ~id ~node:(Some node) ~view:(view_for node) ~site
    ?config ~metrics ?tracer ()

let create_static ~addr ~id ~view ?(site = 0) ?config
    ?(metrics = Obs.Metrics.default) ?tracer () =
  make ~wheel:(Sim.Engine.create ()) ~outbox:(Queue.create ()) ~addr ~id
    ~node:None ~view ~site ?config ~metrics ?tracer ()

let addr t = Server.addr t.server
let id t = Server.id t.server
let server t = t.server
let chord t =
  match t.ring with Live node -> node | Static _ -> invalid_arg "Engine.chord"
let now t = Sim.Engine.now t.wheel
let next_due t = Sim.Engine.next_due t.wheel

(* --- frame codec dispatch --- *)

let decode bytes =
  let module L = Wire.Layout in
  if String.length bytes < L.preamble_bytes then Error "frame too short"
  else
    let kind = Char.code bytes.[L.off_kind] in
    if kind >= L.kind_lookup_step && kind <= L.kind_notify then
      Result.map (fun m -> Chord m) (Chord.Codec.decode bytes)
    else
      (* Data packets (flags < [first_kind]) and i3 control kinds both
         belong to the i3 codec, which discriminates them itself. *)
      Result.map (fun m -> I3 m) (Codec.decode bytes)

let encode_effect = function
  | Send (dst, m) -> Some (dst, Codec.encode m)
  | Chord_send (dst, m) -> Some (dst, Chord.Codec.encode m)
  | Deliver { dst; stack; payload; trace } ->
      Some (dst, Codec.encode (Message.Deliver { stack; payload; trace }))
  | Set_timer _ -> None

(* --- the state machine --- *)

(* Refresh the engine's introspection gauges so any snapshot — a wire
   scrape or a shutdown dump — reads current values, not whatever the
   last refresh left behind. *)
let refresh_introspection t =
  Obs.Metrics.set t.g_wheel_depth (float_of_int (Sim.Engine.pending t.wheel));
  Obs.Metrics.set t.g_pending_rpcs
    (match t.ring with
    | Live node -> float_of_int (Chord.Protocol.pending_rpcs node)
    | Static _ -> 0.);
  Obs.Metrics.set t.g_triggers
    (float_of_int (Trigger_table.size (Server.triggers t.server)))

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* Answer a telemetry scrape as a pure effect: snapshot the registry
   slice, optionally drain the trace ring (so each hop event crosses the
   wire exactly once), and queue the response.  Truncation to the wire
   caps keeps the response a legal single datagram even against a
   pathological registry. *)
let handle_stats t ~src ~nonce ~prefix ~drain =
  let module L = Wire.Layout in
  refresh_introspection t;
  let samples =
    Obs.Metrics.snapshot
      ?prefix:(if prefix = "" then None else Some prefix)
      t.metrics
    |> List.filter (fun (s : Obs.Metrics.sample) ->
           List.length s.labels <= L.max_stats_labels)
    |> take L.max_stats_samples
  in
  let events =
    if drain then take L.max_trace_drain (Obs.Trace.drain t.tracer) else []
  in
  Queue.add
    (Send (src, Message.Stats_response { nonce; server = addr t; samples; events }))
    t.outbox

let rec dispatch t = function
  | Tick -> ()
  | Batch events -> List.iter (dispatch t) events
  | Frame { src; frame = I3 (Message.Stats_request { nonce; prefix; drain }) }
    ->
      handle_stats t ~src ~nonce ~prefix ~drain
  | Frame { src; frame = I3 msg } -> Server.handle_message t.server ~src msg
  | Frame { src; frame = Chord msg } -> (
      match t.ring with
      | Live node -> Chord.Protocol.handle node ~src msg
      | Static dropped -> Obs.Metrics.incr dropped)

(* [engine.events] counts protocol work, so a batch counts its leaves —
   one backlog drained through one [step] must read the same as the
   frames stepped one at a time. *)
let rec leaf_events = function
  | Batch events -> List.fold_left (fun n e -> n + leaf_events e) 0 events
  | _ -> 1

let step t ~now event =
  (* The wheel's clock starts at the first step, wherever the caller's
     clock stands: a node created late in a run starts its periodic
     timers then, instead of replaying every period since 0. *)
  if not t.started then begin
    t.started <- true;
    Sim.Engine.start_at t.wheel now
  end;
  Obs.Metrics.incr ~by:(leaf_events event) t.c_events;
  (* Fire everything due first, so a frame arriving late still sees the
     timer-driven state (expiry, suspicion) it would have seen live. *)
  Sim.Engine.run_until t.wheel now;
  dispatch t event;
  (* Zero-delay continuations the dispatch scheduled fire in this step,
     not the next tick. *)
  Sim.Engine.run_until t.wheel now;
  let effects = List.of_seq (Queue.to_seq t.outbox) in
  Queue.clear t.outbox;
  Obs.Metrics.incr ~by:(List.length effects) t.c_effects;
  Obs.Metrics.observe t.h_batch (float_of_int (List.length effects));
  refresh_introspection t;
  match Sim.Engine.next_due t.wheel with
  | Some due -> effects @ [ Set_timer due ]
  | None -> effects
