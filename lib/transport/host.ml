(* The one end-host driver: every host-side decision is [I3.Endhost]'s;
   this module carries the machine's effects as wire bytes, stamps
   trace events and counts its notes, on a [Sim_endpoint] (with one
   scheduler wake-up) or, for [Client], on a UDP socket. *)

type config = I3.Endhost.config = {
  refresh_period_ms : float;
  cache_ttl_ms : float;
  ack_grace_ms : float;
}

let default_config =
  { refresh_period_ms = I3.Endhost.default_refresh_period_ms;
    cache_ttl_ms = 60_000.; ack_grace_ms = 90_000. }

type t = {
  machine : I3.Endhost.t;
  rng : Rng.t;
  send_bytes : int -> string -> unit;
  clock : unit -> float;
  sim : Sim_endpoint.t option;  (* [None] over a socket *)
  tracer : Obs.Trace.t;
  mutable receive : stack:I3.Packet.stack -> payload:string -> unit;
  mutable on_note : I3.Endhost.note -> unit;
  mutable next_due : float option;  (* the last step's Set_timer *)
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

let now t = t.clock ()
let addr t = I3.Endhost.addr t.machine
let gateway t = I3.Endhost.gateway t.machine
let on_receive t f = t.receive <- f
let on_note t f = t.on_note <- f
let cached_server_for t id = I3.Endhost.cached_server t.machine ~now:(now t) id
let new_private_id t = Id.random t.rng
let active_triggers t = I3.Endhost.triggers t.machine

let endpoint what t =
  match t.sim with
  | Some ep -> ep
  | None -> invalid_arg (what ^ ": not a simulated host")

let engine t = Net.engine (endpoint "Host.engine" t).net

let site t = let ep = endpoint "Host.site" t in Net.site ep.net ep.addr

(* Trace events carry the simulated site; a socket host has none. *)
let trace_site t = if t.sim = None then -1 else site t

let count t = function
  | I3.Endhost.Acked _ -> Obs.Metrics.incr t.c_acks
  | I3.Endhost.Refresh_sent { attempt = 1; _ } -> Obs.Metrics.incr t.c_refreshes
  | I3.Endhost.Refresh_sent _ ->
      (* A retry goes out only once the previous attempt timed out. *)
      Obs.Metrics.incr t.c_timeouts;
      Obs.Metrics.incr t.c_retries
  | I3.Endhost.Rehomed _ -> ()
  | I3.Endhost.Gave_up _ -> Obs.Metrics.incr t.c_gave_up

let send_message t ~dst msg = t.send_bytes dst (I3.Codec.encode msg)

(* Sends leave in effect order; a simulated host's wake-up is armed
   after them, at the deadline the step announced. *)
let rec step t ~now event =
  t.next_due <- None;
  List.iter (apply t ~now) (I3.Endhost.step t.machine ~now event);
  Option.iter
    (fun ep ->
      Sim_endpoint.arm ep
        ~next_due:(fun () -> t.next_due)
        ~tick:(fun ~now -> step t ~now I3.Endhost.Tick))
    t.sim

and apply t ~now = function
  | I3.Endhost.Send (dst, msg) ->
      (match msg with
      | I3.Message.Insert _ -> Obs.Metrics.incr t.c_sends
      | _ -> ());
      send_message t ~dst msg
  | I3.Endhost.Deliver { stack; payload; trace } ->
      (* The terminal event is recorded at the receiving host: a Deliver
         message lost in flight is then a net-level drop, not a
         delivery. *)
      Obs.Trace.record t.tracer trace ~time:now ~site:(trace_site t)
        Obs.Trace.Deliver;
      Obs.Metrics.incr t.c_delivers;
      t.receive ~stack ~payload
  | I3.Endhost.Note n ->
      count t n;
      t.on_note n
  | I3.Endhost.Set_timer at -> t.next_due <- Some at

let step_now t event = step t ~now:(now t) event

let decode t bytes =
  match I3.Codec.decode bytes with
  | Ok msg -> Some msg
  | Error _ ->
      Obs.Metrics.incr t.c_decode_errors;
      None

let make ~sim ~send ~clock ~addr ~metrics ~instance ~tracer ?spans ~rng
    ~gateways config =
  let c ?(labels = []) name =
    Obs.Metrics.counter metrics ~labels:(("instance", instance) :: labels) name
  in
  { machine =
      I3.Endhost.create ?spans ~config ~rng:(Rng.split rng) ~addr ~gateways ();
    rng; send_bytes = send; clock; sim; tracer;
    receive = (fun ~stack:_ ~payload:_ -> ()); on_note = ignore;
    next_due = None;
    c_sends = c "client.sends"; c_retries = c "client.retries";
    c_timeouts = c "client.timeouts"; c_gave_up = c "client.gave_up";
    c_acks = c "client.acks"; c_refreshes = c "client.refreshes";
    c_delivers = c "client.delivers"; c_data = c "client.data_sent";
    c_decode_errors = c ~labels:[ ("proto", "i3") ] "wire.decode_errors" }

let over ~send ~clock ~addr ~metrics ~instance ~rng ~gateways config =
  make ~sim:None ~send ~clock ~addr ~metrics ~instance
    ~tracer:Obs.Trace.disabled ~rng ~gateways config

let create ~net ~rng ~site ~gateways ?(config = default_config)
    ?(tracer = Obs.Trace.disabled) ?spans () =
  let ep = Sim_endpoint.attach net ~site in
  let t =
    make ~sim:(Some ep) ~send:(fun dst -> Sim_endpoint.send ep ~dst)
      ~clock:(fun () -> Engine.now (Net.engine net)) ~addr:ep.addr
      ~metrics:(Net.metrics net) ~instance:(Net.label net) ~tracer ?spans ~rng
      ~gateways config
  in
  Sim_endpoint.set_handler ep (fun ~src:_ bytes ->
      Option.iter (fun m -> step_now t (I3.Endhost.Frame m)) (decode t bytes));
  t

let insert_stack_trigger t id stack =
  step_now t
    (I3.Endhost.Insert
       { trigger = I3.Trigger.make ~id ~stack ~owner:(addr t); sync = false })

let insert_trigger t id = insert_stack_trigger t id [ I3.Packet.Saddr (addr t) ]

let insert_trigger_with_backup t id =
  let backup = Id.antipode id in
  insert_trigger t id;
  insert_trigger t backup;
  backup

let remove_trigger t id =
  List.iter
    (fun tr ->
      if Id.equal tr.I3.Trigger.id id then step_now t (I3.Endhost.Remove tr))
    (active_triggers t)

let send_packet t (p : I3.Packet.t) =
  (* Allocate a trace id at send time (unless the caller pre-traced the
     packet); every later layer just carries it. *)
  let p =
    if p.trace <> Obs.Trace.none then p
    else
      match Obs.Trace.start t.tracer with
      | id when id = Obs.Trace.none -> p
      | id -> { p with trace = id }
  in
  let now = now t in
  Obs.Trace.record t.tracer p.trace ~time:now ~site:(trace_site t)
    Obs.Trace.Send;
  Obs.Metrics.incr t.c_data;
  step t ~now (I3.Endhost.Send_packet p)

let send_stack t stack payload =
  send_packet t (I3.Packet.make ~stack ~payload ())

let send t id payload = send_stack t [ I3.Packet.Sid id ] payload

let send_with_backup t ~primary ~backup payload =
  send_stack t [ I3.Packet.Sid primary; I3.Packet.Sid backup ] payload

let move t ~new_site =
  let ep = endpoint "Host.move" t in
  Sim_endpoint.move ep ~site:new_site;
  step_now t (I3.Endhost.Move ep.addr)
