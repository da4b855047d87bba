(* Recovery checks, probe flows and the health monitor, written once
   against [Fleet]: the simulator runs them in virtual time and the live
   fleet on the wall clock, through the same code. *)

type flow = { probe : Obs.Probe.t; id : Id.t; stop : unit -> unit }

type t = {
  fleet : Fleet.t;
  mutable flows : flow list;
  answered : (int, unit) Hashtbl.t;  (* conservation nonces delivered *)
  mutable nonce : int;
}

let create fleet =
  let t = { fleet; flows = []; answered = Hashtbl.create 16; nonce = 0 } in
  Transport.Host.on_receive (Fleet.receiver fleet) (fun ~stack:_ ~payload ->
      match String.split_on_char ' ' payload with
      | [ "i3cons"; nonce ] ->
          Option.iter
            (fun n -> Hashtbl.replace t.answered n ())
            (int_of_string_opt nonce)
      | _ ->
          let now = Fleet.now fleet in
          List.iter
            (fun f -> Obs.Probe.on_receive f.probe ~now payload)
            t.flows);
  t

(* --- invariants --- *)

(* Run the fleet in slices of at most [step] ms until [cond] holds or
   [within] ms have passed. *)
let wait_for fleet ~step ~within cond =
  let deadline = Fleet.now fleet +. within in
  let rec go () =
    cond ()
    || Fleet.now fleet < deadline
       && begin
            Fleet.run_for fleet (Float.min step (deadline -. Fleet.now fleet));
            go ()
          end
  in
  go ()

let converges_within t ~budget =
  let start = Fleet.now t.fleet in
  if wait_for t.fleet ~step:1_000. ~within:budget (fun () ->
         Fleet.converged t.fleet)
  then Some (Fleet.now t.fleet -. start)
  else None

(* A probe goes to the receiver's gateway as a plain Data message, past
   the host's sender cache, and the gateway routes it to whoever owns
   the identifier now.  Five tries of 400 ms absorb loss: conservation
   is about state, not about one datagram's fate. *)
let triggers_conserved t =
  let host = Fleet.receiver t.fleet in
  let rec conserved n (trigger : I3.Trigger.t) =
    n > 0
    && begin
         t.nonce <- t.nonce + 1;
         let nonce = t.nonce in
         Transport.Host.send_message host ~dst:(Transport.Host.gateway host)
           (I3.Message.Data
              (I3.Packet.make ~stack:[ I3.Packet.Sid trigger.id ]
                 ~payload:(Printf.sprintf "i3cons %d" nonce)
                 ()));
         wait_for t.fleet ~step:20. ~within:400. (fun () ->
             Hashtbl.mem t.answered nonce)
         || conserved (n - 1) trigger
       end
  in
  List.for_all (conserved 5) (Transport.Host.active_triggers host)

(* --- probe flows --- *)

let start_flow ?(period = 250.) t ~name id =
  let fleet = t.fleet in
  let probe =
    Obs.Probe.create ~metrics:(Fleet.metrics fleet) ~name
      ~now:(Fleet.now fleet)
  in
  let sender = Fleet.sender fleet in
  let cancel =
    Fleet.every fleet ~phase:0.001 ~period (fun () ->
        let payload = Obs.Probe.next probe in
        Transport.Host.send_packet sender
          (I3.Packet.make ~trace:(Fleet.trace_id fleet)
             ~stack:[ I3.Packet.Sid id ] ~payload ()))
  in
  let stop () =
    cancel ();
    Obs.Probe.stop probe ~now:(Fleet.now fleet)
  in
  let f = { probe; id; stop } in
  t.flows <- f :: t.flows;
  f

let stop_flow f = f.stop ()

let received f = Obs.Probe.received f.probe
let time_to_recovery f ~after = Obs.Probe.time_to_recovery f.probe ~after

(* --- the monitor --- *)

(* It reads only the registry the fleet writes, never ground truth, so
   its detect/recover times are what an operator would have seen. *)
type monitor = {
  m_fleet : Fleet.t;
  health : Obs.Health.t;
  mutable dumps : (float * Json.t) list;  (* newest first *)
  stop : unit -> unit;
}

let sim_rules f =
  [
    Obs.Probe.delivery_rule ~ok:0.8 ~degraded:0.45 f.probe;
    {
      Obs.Health.rule = "rpc-timeouts";
      signal =
        Obs.Health.Rate
          {
            metric = "chord.rpc_timeouts";
            labels = [ ("instance", Chord.Protocol.ring_label) ];
            window_ms = 2_000.;
          };
      bound = Obs.Health.At_most { ok = 0.5; degraded = 4. };
    };
  ]

let live_rules f =
  [
    Obs.Probe.delivery_rule ~ok:0.6 ~degraded:0.25 f.probe;
    {
      Obs.Health.rule = "client-gave-up";
      signal =
        Obs.Health.Latest
          { metric = "client.gave_up"; labels = [ ("instance", "client") ] };
      bound = Obs.Health.At_most { ok = 0.; degraded = 0. };
    };
  ]

let flight_dump fleet health ~at evals =
  let tail tr =
    if not (Obs.Trace.enabled tr) then []
    else
      let l = Obs.Trace.events tr in
      let skip = List.length l - 256 in
      List.filteri (fun i _ -> i >= skip) l
  in
  Obs.Sink.flight_record ~at ~reason:"health verdict entered Violated"
    ~metrics:(Obs.Metrics.snapshot (Obs.Health.registry health))
    ~series:(Obs.Series.all (Obs.Health.store health))
    ~spans:(tail (Fleet.spans fleet))
    ~events:(tail (Fleet.tracer fleet))
    ~evaluations:evals ()

let max_dumps = 4

let monitor ?(period = 500.) t ~rules =
  let fleet = t.fleet in
  let health =
    Obs.Health.create ~history_capacity:4096 ~rules
      (Fleet.metrics fleet)
  in
  let stop =
    Fleet.every fleet ~period (fun () ->
        ignore (Obs.Health.scrape health ~time:(Fleet.now fleet)))
  in
  let m = { m_fleet = fleet; health; dumps = []; stop } in
  Obs.Health.on_violation health (fun evals ->
      let at = Fleet.now fleet in
      if List.length m.dumps < max_dumps then
        m.dumps <- (at, flight_dump fleet health ~at evals) :: m.dumps);
  m

let stop_monitor m = m.stop ()
let health m = m.health
let dumps m = List.rev m.dumps

let live_row m =
  let evals = Obs.Health.last m.health in
  let cell (rule : Obs.Health.rule) =
    match
      List.find_opt
        (fun (e : Obs.Health.evaluation) -> e.rule = rule.rule)
        evals
    with
    | None -> "-"
    | Some e ->
        Printf.sprintf "%s %s"
          (match e.value with Some v -> Printf.sprintf "%.3g" v | None -> "-")
          (Obs.Health.verdict_to_string e.verdict)
  in
  Printf.sprintf "%.0f" (Fleet.now m.m_fleet)
  :: Obs.Health.verdict_to_string (Obs.Health.overall evals)
  :: List.map cell (Obs.Health.rules m.health)

(* --- scenarios --- *)

type metrics = {
  scenario : string;
  sent : int;
  delivered : int;
  delivery_ratio : float;
  time_to_recovery_ms : float option;
  longest_outage_ms : float;
  converged : bool;
  conserved : bool;
  detect_ms : float option;
  monitor_ttr_ms : float option;
}

let recover t ~scenario ~fault_at ~budget ~repair_ms f m =
  let converged = converges_within t ~budget <> None in
  Fleet.run_for t.fleet repair_ms;
  let conserved = triggers_conserved t in
  Fleet.run_for t.fleet 3_000.;
  stop_monitor m;
  stop_flow f;
  let p = f.probe in
  {
    scenario;
    sent = Obs.Probe.sent p;
    delivered = Obs.Probe.received p;
    delivery_ratio = Obs.Probe.delivery_ratio p;
    time_to_recovery_ms = Obs.Probe.time_to_recovery p ~after:fault_at;
    longest_outage_ms = Obs.Probe.longest_outage p ~now:(Fleet.now t.fleet);
    converged;
    conserved;
    detect_ms = Obs.Health.time_to_detect m.health ~fault_at;
    monitor_ttr_ms = Obs.Health.time_to_recover m.health ~fault_at;
  }

type scenario = {
  name : string;
  schedule : Fleet.t -> Id.t -> Faults.schedule;
  fault_ms : float;
}

let kill_owner ~down_ms ~fault_ms =
  {
    name = "kill owner";
    schedule =
      (fun fleet id ->
        let i = Fleet.owner_index fleet id in
        [ (0., Faults.Crash i); (down_ms, Faults.Restart i) ]);
    fault_ms;
  }

let run t sc ~budget ~repair_ms f m =
  let schedule = Faults.sorted (sc.schedule t.fleet f.id) in
  let fault_at =
    Fleet.now t.fleet +. match schedule with (at, _) :: _ -> at | [] -> 0.
  in
  Fleet.inject t.fleet schedule;
  Fleet.run_for t.fleet sc.fault_ms;
  recover t ~scenario:sc.name ~fault_at ~budget ~repair_ms f m

let report ms =
  let opt = Option.fold ~none:"-" ~some:(Printf.sprintf "%.0f") in
  let yes b = if b then "yes" else "NO" in
  let header =
    [
      "scenario"; "sent"; "delivered"; "ratio"; "ttr (ms)"; "outage (ms)";
      "converged"; "conserved"; "ttd (ms)"; "mon ttr (ms)";
    ]
  in
  let row m =
    [
      m.scenario;
      string_of_int m.sent;
      string_of_int m.delivered;
      Printf.sprintf "%.3f" m.delivery_ratio;
      opt m.time_to_recovery_ms;
      Printf.sprintf "%.0f" m.longest_outage_ms;
      yes m.converged;
      yes m.conserved;
      opt m.detect_ms;
      opt m.monitor_ttr_ms;
    ]
  in
  print_endline "chaos scenarios: delivery ratio and time-to-recovery";
  Obs.Sink.aligned_table (header :: List.map row ms);
  print_newline ()
