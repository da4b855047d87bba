(* One fleet interface over the simulator and the wire: a record of the
   operations the recovery checks call, filled once per substrate. *)

type t = {
  now : unit -> float;
  run_for : float -> unit;
  every : ?phase:float -> period:float -> (unit -> unit) -> unit -> unit;
  inject : Faults.schedule -> unit;
  sender : Transport.Host.t;
  receiver : Transport.Host.t;
  owner_index : Id.t -> int;
  converged : unit -> bool;
  metrics : Obs.Metrics.t;
  decode_errors : unit -> int;
  spans : Obs.Trace.t;
  tracer : Obs.Trace.t;
  trace_id : unit -> int;
}

let now t = t.now ()
let run_for t ms = t.run_for ms
let every t ?phase ~period f = t.every ?phase ~period f
let inject t schedule = t.inject schedule
let sender t = t.sender
let receiver t = t.receiver
let owner_index t id = t.owner_index id
let converged t = t.converged ()
let metrics t = t.metrics
let decode_errors t = t.decode_errors ()
let spans t = t.spans
let tracer t = t.tracer
let trace_id t = t.trace_id ()

(* One schedule rule for both substrates, checked when the schedule is
   handed over rather than when its event fires: no event in the past,
   and every victim exists. *)
let check_schedule ~members schedule =
  List.iter
    (fun (at, e) ->
      if at < 0. then invalid_arg "Fleet.inject: negative event time";
      match (e : Faults.event) with
      | (Faults.Crash i | Faults.Restart i) when i < 0 || i >= members ->
          invalid_arg
            (Printf.sprintf "Fleet.inject: no member %d in a fleet of %d" i
               members)
      | _ -> ())
    schedule

let sum_counter metrics name =
  List.fold_left
    (fun acc (s : Obs.Metrics.sample) ->
      match s.value with
      | Obs.Metrics.Counter n when s.name = name -> acc + n
      | _ -> acc)
    0
    (Obs.Metrics.snapshot ~prefix:name metrics)

(* --- the simulated fleet --- *)

let sim ?(rng = Rng.of_int 0) d ~sender ~receiver =
  let engine = Transport.Dynamic.engine d in
  let metrics = Transport.Dynamic.metrics d in
  {
    now = (fun () -> Engine.now engine);
    run_for = Transport.Dynamic.run_for d;
    every =
      (fun ?phase ~period f ->
        let timer = Engine.every engine ?phase ~period f in
        fun () -> Engine.cancel timer);
    inject =
      (fun schedule ->
        check_schedule
          ~members:(List.length (Transport.Dynamic.all_servers d))
          schedule;
        let server i = Transport.Dynamic.nth_server d i in
        let crash i = Transport.Dynamic.kill_server d (server i)
        and restart i = Transport.Dynamic.restart_server d (server i) in
        Faults.install engine
          (Net.driver ~crash ~restart (Transport.Dynamic.net d))
          schedule);
    sender;
    receiver;
    owner_index =
      (fun id ->
        match Transport.Dynamic.owners_of d id with
        | [ o ] ->
            Option.get
              (List.find_index (fun s -> I3.Server.addr s = I3.Server.addr o)
                 (Transport.Dynamic.all_servers d))
        | _ -> invalid_arg "Fleet.owner_index: no single owner");
    converged =
      (fun () ->
        List.for_all
          (fun id -> List.length (Transport.Dynamic.owners_of d id) = 1)
          (List.init 32 (fun _ -> Id.random rng)));
    metrics;
    decode_errors = (fun () -> sum_counter metrics "wire.decode_errors");
    spans = Transport.Dynamic.spans d;
    tracer = Transport.Dynamic.tracer d;
    trace_id = (fun () -> Obs.Trace.none);
  }

(* --- the live fleet --- *)

let wall_ms () = Unix.gettimeofday () *. 1000.

let live ?faulty ~metrics cluster client =
  (* Schedule events and [every] ticks still to run, as (wall ms,
     action) in the order they were set. *)
  let alarms = ref [] in
  let at due f = alarms := !alarms @ [ (due, f) ] in
  let apply (e : Faults.event) =
    match e with
    | Faults.Crash i -> Cluster.kill cluster i
    | Faults.Restart i -> Cluster.restart cluster i
    | e -> Option.iter (fun f -> Transport.Faulty.apply f e) faulty
  in
  (* The one wall-clock loop.  The client's receive blocks until its
     next datagram, for at most 20 ms and never past the next alarm. *)
  let run_for ms =
    let deadline = wall_ms () +. ms in
    let rec loop () =
      let next =
        List.fold_left (fun m (d, _) -> Float.min m d) deadline !alarms
      in
      let wait = Float.max 0. (Float.min 20. (next -. wall_ms ())) in
      ignore (Transport.Client.wait client ~timeout:(wait /. 1000.));
      let now = wall_ms () in
      Transport.Client.poll client ~now;
      Cluster.supervise cluster;
      let due, later = List.partition (fun (d, _) -> d <= now) !alarms in
      alarms := later;
      List.iter
        (fun (_, f) -> f ())
        (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) due);
      if now < deadline then loop ()
    in
    loop ()
  in
  let next_trace = ref ((Unix.getpid () land 0xffff) lsl 32) in
  let members = List.length (Cluster.members cluster) in
  let host = Transport.Client.host client in
  {
    now = wall_ms;
    run_for;
    every =
      (fun ?phase ~period f ->
        let live = ref true in
        let rec tick () =
          if !live then begin
            f ();
            at (wall_ms () +. period) tick
          end
        in
        at (wall_ms () +. Option.value phase ~default:period) tick;
        fun () -> live := false);
    inject =
      (fun schedule ->
        check_schedule ~members schedule;
        let start = wall_ms () in
        List.iter
          (fun (t, e) -> at (start +. t) (fun () -> apply e))
          (Faults.sorted schedule));
    sender = host;
    receiver = host;
    owner_index = Cluster.owner_index cluster;
    converged = (fun () -> Cluster.converged cluster);
    metrics;
    decode_errors =
      (fun () ->
        Cluster.decode_errors cluster
        + sum_counter metrics "wire.decode_errors");
    spans = Obs.Trace.disabled;
    tracer = Obs.Trace.disabled;
    trace_id =
      (fun () ->
        incr next_trace;
        !next_trace);
  }
