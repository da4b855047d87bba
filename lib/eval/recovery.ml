(* --- invariant checkers --- *)

let ring_converged ?(probes = 32) rng d =
  let ok = ref true in
  for _ = 1 to probes do
    if List.length (Transport.Dynamic.owners_of d (Id.random rng)) <> 1 then
      ok := false
  done;
  !ok

let converges_within ?probes ?(check_every = 1_000.) ~budget rng d =
  let start = Transport.Dynamic.now d in
  let deadline = start +. budget in
  let rec wait () =
    if ring_converged ?probes rng d then
      Some (Transport.Dynamic.now d -. start)
    else if Transport.Dynamic.now d >= deadline then None
    else begin
      Transport.Dynamic.run_for d
        (Float.min check_every (deadline -. Transport.Dynamic.now d));
      wait ()
    end
  in
  wait ()

let triggers_conserved d hosts =
  let now = Transport.Dynamic.now d in
  List.for_all
    (fun host ->
      List.for_all
        (fun (tr : I3.Trigger.t) ->
          match Transport.Dynamic.owners_of d tr.I3.Trigger.id with
          | [] -> false
          | owners ->
              List.for_all
                (fun s ->
                  I3.Trigger_table.find_matches (I3.Server.triggers s) ~now
                    tr.I3.Trigger.id
                  <> [])
                owners)
        (I3.Host.active_triggers host))
    hosts

(* --- probe flows --- *)

(* The virtual-time driver of an [Obs.Probe]: an [Engine.every] timer
   sends, the receiver's callback records, both on [Engine.now]. *)
type flow = { probe : Obs.Probe.t; engine : Engine.t; timer : Engine.timer }

let flow_counter = ref 0

let start_flow d ~sender ~receiver ?(period = 250.) ?name id =
  incr flow_counter;
  let name =
    Option.value name ~default:(Printf.sprintf "flow%d" !flow_counter)
  in
  let engine = Transport.Dynamic.engine d in
  let probe =
    Obs.Probe.create ~metrics:(Transport.Dynamic.metrics d) ~name
      ~now:(Engine.now engine)
  in
  I3.Host.on_receive receiver (fun ~stack:_ ~payload ->
      Obs.Probe.on_receive probe ~now:(Engine.now engine) payload);
  let timer =
    Engine.every engine ~phase:0.001 ~period (fun () ->
        I3.Host.send sender id (Obs.Probe.next probe))
  in
  { probe; engine; timer }

let stop_flow f =
  Engine.cancel f.timer;
  Obs.Probe.stop f.probe ~now:(Engine.now f.engine)

let probe f = f.probe
let received f = Obs.Probe.received f.probe
let time_to_recovery f ~after = Obs.Probe.time_to_recovery f.probe ~after

(* --- reporting --- *)

type metrics = {
  scenario : string;
  sent : int;
  delivered : int;
  delivery_ratio : float;
  time_to_recovery_ms : float option;
  longest_outage_ms : float;
  converged : bool;
  detect_ms : float option;
  monitor_ttr_ms : float option;
}

let metrics ~scenario ?fault_at ?detect_ms ?monitor_ttr_ms ~converged f =
  let p = f.probe in
  {
    scenario;
    sent = Obs.Probe.sent p;
    delivered = Obs.Probe.received p;
    delivery_ratio = Obs.Probe.delivery_ratio p;
    time_to_recovery_ms =
      Option.bind fault_at (fun after -> Obs.Probe.time_to_recovery p ~after);
    longest_outage_ms = Obs.Probe.longest_outage p ~now:(Engine.now f.engine);
    converged;
    detect_ms;
    monitor_ttr_ms;
  }

let header =
  [
    "scenario"; "sent"; "delivered"; "ratio"; "ttr (ms)"; "outage (ms)";
    "converged"; "ttd (ms)"; "mon ttr (ms)";
  ]

let opt_ms = function Some t -> Printf.sprintf "%.0f" t | None -> "-"

let row m =
  [
    m.scenario;
    string_of_int m.sent;
    string_of_int m.delivered;
    Printf.sprintf "%.3f" m.delivery_ratio;
    opt_ms m.time_to_recovery_ms;
    Printf.sprintf "%.0f" m.longest_outage_ms;
    (if m.converged then "yes" else "NO");
    opt_ms m.detect_ms;
    opt_ms m.monitor_ttr_ms;
  ]

let report ms =
  Report.table ~title:"chaos scenarios: delivery ratio and time-to-recovery"
    ~header (List.map row ms)
