(* The simulator's end-host driver: every host-side decision is
   [Endhost]'s; this module carries the machine's effects over [Net] as
   wire bytes, stamps trace events, and arms one wake-up on the
   simulated clock. *)

type config = Endhost.config = {
  refresh_period_ms : float;
  cache_ttl_ms : float;
  ack_grace_ms : float;
}

let default_config =
  {
    refresh_period_ms = Endhost.default_refresh_period_ms;
    cache_ttl_ms = 60_000.;
    ack_grace_ms = 90_000.;
  }

type t = {
  engine : Sim.Engine.t;
  net : string Net.t;
  rng : Rng.t;
  machine : Endhost.t;
  mutable site : int;
  mutable receive : stack:Packet.stack -> payload:string -> unit;
  mutable wake : float;  (* the earliest pending wake-up *)
  tracer : Obs.Trace.t;
}

let now t = Sim.Engine.now t.engine
let addr t = Endhost.addr t.machine
let site t = t.site
let engine t = t.engine
let gateway t = Endhost.gateway t.machine
let on_receive t f = t.receive <- f
let cached_server_for t id = Endhost.cached_server t.machine ~now:(now t) id
let new_private_id t = Id.random t.rng
let active_triggers t = Endhost.triggers t.machine

let rec step t event =
  List.iter (apply t) (Endhost.step t.machine ~now:(now t) event)

and apply t = function
  | Endhost.Send (dst, msg) ->
      Net.send t.net ~src:(addr t) ~dst (Codec.encode msg)
  | Endhost.Deliver { stack; payload; trace } ->
      (* The terminal event is recorded at the receiving host: a Deliver
         message lost in flight is then a net-level drop, not a
         delivery. *)
      Obs.Trace.record t.tracer trace ~time:(now t) ~site:t.site
        Obs.Trace.Deliver;
      t.receive ~stack ~payload
  | Endhost.Note _ -> ()
  | Endhost.Set_timer at ->
      (* Later wake-ups stay queued; one that finds itself superseded
         does nothing. *)
      if at < t.wake then begin
        t.wake <- at;
        Sim.Engine.schedule_at t.engine ~time:at (fun () ->
            if t.wake = at then begin
              t.wake <- Float.infinity;
              step t Endhost.Tick
            end)
      end

(* A receive handler that drops and counts what does not decode. *)
let receiver net handle =
  let errors =
    Obs.Metrics.counter (Net.metrics net)
      ~labels:[ ("instance", Net.label net); ("proto", "i3") ]
      "wire.decode_errors"
  in
  fun ~src:_ bytes ->
    match Codec.decode bytes with
    | Ok msg -> handle msg
    | Error _ -> Obs.Metrics.incr errors

let create ~engine ~net ~rng ~site ~gateways ?(config = default_config)
    ?(tracer = Obs.Trace.disabled) ?spans () =
  let self = ref None in
  let addr =
    Net.register net ~site
      (receiver net (fun msg ->
           Option.iter (fun t -> step t (Endhost.Frame msg)) !self))
  in
  let machine =
    Endhost.create ?spans ~config ~rng:(Rng.split rng) ~addr ~gateways ()
  in
  let t =
    { engine; net; machine; rng; site; wake = Float.infinity; tracer;
      receive = (fun ~stack:_ ~payload:_ -> ()) }
  in
  self := Some t;
  t

(* --- triggers --- *)

let insert_stack_trigger t id stack =
  step t
    (Endhost.Insert
       { trigger = Trigger.make ~id ~stack ~owner:(addr t); sync = false })

let insert_trigger t id = insert_stack_trigger t id [ Packet.Saddr (addr t) ]

let insert_trigger_with_backup t id =
  let backup = Id.antipode id in
  insert_trigger t id;
  insert_trigger t backup;
  backup

let remove_trigger t id =
  List.iter
    (fun tr -> if Id.equal tr.Trigger.id id then step t (Endhost.Remove tr))
    (active_triggers t)

(* --- sending --- *)

let send_packet t (p : Packet.t) =
  (* Allocate a trace id at send time (unless the caller pre-traced the
     packet); every later layer just carries it. *)
  let p =
    if p.Packet.trace <> Obs.Trace.none then p
    else
      match Obs.Trace.start t.tracer with
      | id when id = Obs.Trace.none -> p
      | id -> { p with Packet.trace = id }
  in
  Obs.Trace.record t.tracer p.Packet.trace ~time:(now t) ~site:t.site
    Obs.Trace.Send;
  step t (Endhost.Send_packet p)

let send_stack t ?(match_required = false) stack payload =
  send_packet t (Packet.make ~match_required ~stack ~payload ())

let send t ?(refresh = false) id payload =
  send_packet t (Packet.make ~refresh ~stack:[ Packet.Sid id ] ~payload ())

let send_with_backup t ~primary ~backup payload =
  send_stack t [ Packet.Sid primary; Packet.Sid backup ] payload

(* --- mobility --- *)

let move t ~new_site =
  let old_addr = addr t in
  let new_addr =
    Net.register t.net ~site:new_site
      (receiver t.net (fun msg -> step t (Endhost.Frame msg)))
  in
  Net.set_down t.net old_addr;
  t.site <- new_site;
  step t (Endhost.Move new_addr)
