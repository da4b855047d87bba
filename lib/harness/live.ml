(* Live-cluster recovery invariants: the wall-clock driver of the same
   checks [Eval.Recovery] / [Eval.Monitor] run in virtual time.

   - {b delivery}: [Obs.Probe] flows (client -> id -> back to the
     client), sent from [flow_tick] and recorded from [on_receive], both
     on [wall_ms ()];
   - {b trigger conservation}: every trigger the client keeps refreshed
     is matchable at its responsible daemon, checked behaviorally by
     probing each trigger and awaiting the Deliver frame (a live
     process's table cannot be inspected, only exercised);
   - {b monitor verdicts}: an [Obs.Health] monitor scraped on the wall
     clock judges the flow's delivery rule and the client's give-up
     counter, yielding monitor-measured TTD/TTR.

   Flows and conservation probes share one [Transport.Client]; this
   module owns its host's [on_receive] callback. *)

let wall_ms () = Unix.gettimeofday () *. 1000.

type flow = {
  probe : Obs.Probe.t;
  id : Id.t;
  period_ms : float;
  mutable next_send : float;  (* wall ms; infinity once stopped *)
}

type t = {
  client : Transport.Client.t;
  metrics : Obs.Metrics.t;
  mutable flows : flow list;
  cons : (int, unit) Hashtbl.t;  (* conservation-probe nonces seen *)
  mutable nonce : int;
  mutable next_trace : int;
}

let attach ?(metrics = Obs.Metrics.default) client =
  let t =
    { client; metrics; flows = []; cons = Hashtbl.create 16; nonce = 0;
      (* Probe packets carry fresh trace ids so daemons record their
         hops (trace 0 = untraced); pid-salted so two clients' ids
         cannot collide when their drained events are assembled. *)
      next_trace = (Unix.getpid () land 0xffff) lsl 32 }
  in
  Transport.Host.on_receive (Transport.Client.host client) (fun ~stack:_ ~payload ->
      match String.split_on_char ' ' payload with
      | [ "i3cons"; nonce ] ->
          Option.iter (fun n -> Hashtbl.replace t.cons n ())
            (int_of_string_opt nonce)
      | _ ->
          let now = wall_ms () in
          List.iter (fun f -> Obs.Probe.on_receive f.probe ~now payload) t.flows);
  t

(* --- probe flows --- *)

let start_flow ?(period_ms = 100.) t ~name id =
  let probe = Obs.Probe.create ~metrics:t.metrics ~name ~now:(wall_ms ()) in
  let f = { probe; id; period_ms; next_send = Float.neg_infinity } in
  t.flows <- f :: t.flows;
  f

let stop_flow f =
  f.next_send <- Float.infinity;
  Obs.Probe.stop f.probe ~now:(wall_ms ())

let flow_tick t f ~now_ms =
  if now_ms >= f.next_send then begin
    f.next_send <- now_ms +. f.period_ms;
    t.next_trace <- t.next_trace + 1;
    Transport.Host.send_packet (Transport.Client.host t.client)
      (I3.Packet.make ~trace:t.next_trace ~stack:[ I3.Packet.Sid f.id ]
         ~payload:(Obs.Probe.next f.probe) ())
  end

let sent f = Obs.Probe.sent f.probe
let received f = Obs.Probe.received f.probe
let delivery_ratio f = Obs.Probe.delivery_ratio f.probe
let time_to_recovery f ~after = Obs.Probe.time_to_recovery f.probe ~after
let longest_outage f = Obs.Probe.longest_outage f.probe ~now:(wall_ms ())

(* --- trigger conservation --- *)

(* A trigger is conserved when a probe addressed to its identifier comes
   back as a Deliver frame: insertion, storage at the responsible
   daemon, rewrite and the final IP hop all demonstrably work.  Retries
   absorb the fault layer's loss — conservation is about state, not
   about any single datagram's fate. *)
let triggers_conserved ?(attempts = 5) ?(attempt_timeout_ms = 400.) t =
  let answered nonce =
    let deadline = wall_ms () +. attempt_timeout_ms in
    let rec wait () =
      if Hashtbl.mem t.cons nonce then true
      else if wall_ms () >= deadline then false
      else begin
        ignore (Transport.Client.wait t.client ~timeout:0.02);
        wait ()
      end
    in
    wait ()
  in
  let rec conserved n (trigger : I3.Trigger.t) =
    if n = 0 then false
    else begin
      t.nonce <- t.nonce + 1;
      Transport.Host.send_stack (Transport.Client.host t.client)
        [ I3.Packet.Sid trigger.id ]
        (Printf.sprintf "i3cons %d" t.nonce);
      answered t.nonce || conserved (n - 1) trigger
    end
  in
  List.for_all (conserved attempts) (Transport.Host.active_triggers (Transport.Client.host t.client))

(* --- the live monitor --- *)

(* The same rule shapes as [Eval.Monitor.default_rules], re-based on the
   client's give-up counter; times are wall ms, so TTD/TTR compare
   directly against fault instants taken from the same clock. *)
let default_rules ?(instance = "client") f =
  [
    (* Looser than the simulator's 0.8/0.45: the live run injects
       baseline loss on top of probes in flight. *)
    Obs.Probe.delivery_rule ~ok:0.6 ~degraded:0.25 f.probe;
    {
      Obs.Health.rule = "client-gave-up";
      signal =
        Obs.Health.Latest
          { metric = "client.gave_up"; labels = [ ("instance", instance) ] };
      bound = Obs.Health.At_most { ok = 0.; degraded = 0. };
    };
  ]

type monitor = {
  health : Obs.Health.t;
  period_ms : float;
  mutable last_scrape : float;
}

let monitor ?(period_ms = 250.) ?(rules = []) t =
  {
    health = Obs.Health.create ~rules t.metrics;
    period_ms;
    last_scrape = Float.neg_infinity;
  }

let monitor_tick m ~now_ms =
  if now_ms -. m.last_scrape >= m.period_ms then begin
    m.last_scrape <- now_ms;
    ignore (Obs.Health.scrape m.health ~time:now_ms)
  end

let time_to_detect m ~fault_at = Obs.Health.time_to_detect m.health ~fault_at
let time_to_recover m ~fault_at = Obs.Health.time_to_recover m.health ~fault_at
