(* A health monitor attached to a running deployment: an Engine-driven
   scraper feeding Obs.Health, with flight-recorder dumps on violation.
   The monitor only ever reads the registry the deployment writes — it
   has no side channel to ground truth, which is exactly what makes its
   detect/recover times honest. *)

type t = {
  engine : Engine.t;
  health : Obs.Health.t;
  spans : Obs.Trace.t;
  tracer : Obs.Trace.t;
  mutable dumps : (float * Json.t) list; (* newest first *)
  timer : Engine.timer;
}

let rpc_timeout_rule ?(window_ms = 2_000.) ~ring_label () =
  (* A healthy converged ring times out essentially never, so even a low
     rate is suspicious; sustained timeouts mean a dead or unreachable
     member. *)
  {
    Obs.Health.rule = "rpc-timeouts";
    signal =
      Obs.Health.Rate
        {
          metric = "chord.rpc_timeouts";
          labels = [ ("instance", ring_label) ];
          window_ms;
        };
    bound = Obs.Health.At_most { ok = 0.5; degraded = 4. };
  }

let lookup_p99_rule ?(ok = 200.) ?(degraded = 2_000.) ~ring_label () =
  (* The lookup histogram is cumulative, so once p99 crosses a threshold
     it stays there for the rest of the run: a sticky rule, useful as a
     pass/fail SLO over a whole experiment, not for recovery tracking. *)
  {
    Obs.Health.rule = "lookup-p99";
    signal =
      Obs.Health.Latest
        {
          metric = "chord.lookup_ms.p99";
          labels = [ ("instance", ring_label) ];
        };
    bound = Obs.Health.At_most { ok; degraded };
  }

let default_rules ~ring_label flow =
  [
    Obs.Probe.delivery_rule ~ok:0.8 ~degraded:0.45 (Recovery.probe flow);
    rpc_timeout_rule ~ring_label ();
  ]

let flight_dump t ~at evals =
  let store = Obs.Health.store t.health in
  let tail n l =
    let len = List.length l in
    if len <= n then l else List.filteri (fun i _ -> i >= len - n) l
  in
  let spans =
    if Obs.Trace.enabled t.spans then tail 256 (Obs.Trace.events t.spans)
    else []
  in
  let events =
    if Obs.Trace.enabled t.tracer then tail 256 (Obs.Trace.events t.tracer)
    else []
  in
  Obs.Sink.flight_record ~at ~reason:"health verdict entered Violated"
    ~metrics:(Obs.Metrics.snapshot (Obs.Health.registry t.health))
    ~series:(Obs.Series.all store) ~series_tail:32 ~spans ~events
    ~evaluations:evals ()

let max_dumps = 4

let create ?(period = 500.) ~rules d =
  let engine = Transport.Dynamic.engine d in
  let health =
    Obs.Health.create ~series_capacity:1024 ~history_capacity:4096 ~rules
      (Transport.Dynamic.metrics d)
  in
  let timer =
    Engine.scraper engine ~period (fun ~time ->
        ignore (Obs.Health.scrape health ~time))
  in
  let t =
    {
      engine;
      health;
      spans = Transport.Dynamic.spans d;
      tracer = Transport.Dynamic.tracer d;
      dumps = [];
      timer;
    }
  in
  Obs.Health.on_violation health (fun evals ->
      let at = Engine.now engine in
      if List.length t.dumps < max_dumps then
        t.dumps <- (at, flight_dump t ~at evals) :: t.dumps);
  t

let health t = t.health

let stop t = Engine.cancel t.timer

let dumps t = List.rev t.dumps

let time_to_detect t ~fault_at = Obs.Health.time_to_detect t.health ~fault_at
let time_to_recover t ~fault_at = Obs.Health.time_to_recover t.health ~fault_at

(* --- live rendering --- *)

let live_header t =
  "t (ms)" :: "overall"
  :: List.map
       (fun (r : Obs.Health.rule) -> r.Obs.Health.rule)
       (Obs.Health.rules t.health)

let live_row t =
  let evals = Obs.Health.last t.health in
  let cell (rule : Obs.Health.rule) =
    match
      List.find_opt
        (fun (e : Obs.Health.evaluation) -> e.Obs.Health.rule = rule.Obs.Health.rule)
        evals
    with
    | None -> "-"
    | Some e ->
        let v =
          match e.Obs.Health.value with
          | Some v -> Printf.sprintf "%.3g" v
          | None -> "-"
        in
        Printf.sprintf "%s %s" v
          (Obs.Health.verdict_to_string e.Obs.Health.verdict)
  in
  Printf.sprintf "%.0f" (Engine.now t.engine)
  :: Obs.Health.verdict_to_string (Obs.Health.overall evals)
  :: List.map cell (Obs.Health.rules t.health)
