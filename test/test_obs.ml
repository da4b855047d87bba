(* Tests for the observability layer: the metrics registry (handles,
   canonical labels, histogram quantiles, snapshots), the trace collector
   (ring, sampling, orphan detection, control-plane operations) and the
   JSON emitter. *)

let feq = Alcotest.(check (float 1e-9))

(* --- Obs.Metrics --- *)

let test_counter_basics () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "t.hits" in
  Alcotest.(check int) "starts at 0" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  Alcotest.(check int) "1 + 4" 5 (Obs.Metrics.counter_value c)

let test_reregister_same_handle () =
  let reg = Obs.Metrics.create () in
  let a = Obs.Metrics.counter reg ~labels:[ ("x", "1"); ("y", "2") ] "t.c" in
  (* same key with labels in the other order: must be the same handle *)
  let b = Obs.Metrics.counter reg ~labels:[ ("y", "2"); ("x", "1") ] "t.c" in
  Obs.Metrics.incr a;
  Obs.Metrics.incr b;
  Alcotest.(check int) "one underlying counter" 2 (Obs.Metrics.counter_value a);
  (* a different label value is a different series *)
  let c = Obs.Metrics.counter reg ~labels:[ ("x", "9"); ("y", "2") ] "t.c" in
  Alcotest.(check int) "distinct series" 0 (Obs.Metrics.counter_value c)

let test_kind_mismatch () =
  let reg = Obs.Metrics.create () in
  let _ = Obs.Metrics.counter reg "t.k" in
  Alcotest.check_raises "counter reused as gauge"
    (Invalid_argument "Obs.Metrics: t.k already registered as a counter")
    (fun () -> ignore (Obs.Metrics.gauge reg "t.k"))

let test_gauge () =
  let reg = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge reg "t.g" in
  Obs.Metrics.set g 2.5;
  Obs.Metrics.add g 1.;
  feq "set + add" 3.5 (Obs.Metrics.gauge_value g)

let test_histogram_quantiles () =
  let reg = Obs.Metrics.create () in
  let h =
    Obs.Metrics.histogram reg "t.h"
      ~buckets:(Obs.Metrics.linear_buckets ~start:10. ~width:10. ~count:10)
  in
  for v = 1 to 100 do
    Obs.Metrics.observe h (float_of_int v)
  done;
  Alcotest.(check int) "count" 100 (Obs.Metrics.hist_count h);
  feq "sum" 5050. (Obs.Metrics.hist_sum h);
  feq "mean" 50.5 (Obs.Metrics.hist_mean h);
  (* 10 observations per 10-wide bucket: interpolation lands near v*q *)
  Alcotest.(check (float 2.)) "p50" 50. (Obs.Metrics.quantile h 0.5);
  Alcotest.(check (float 2.)) "p90" 90. (Obs.Metrics.quantile h 0.9);
  (* quantiles clamp to the observed range *)
  feq "q0 = min" 1. (Obs.Metrics.quantile h 0.);
  feq "q1 = max" 100. (Obs.Metrics.quantile h 1.)

let test_histogram_single_observation () =
  let reg = Obs.Metrics.create () in
  let h =
    Obs.Metrics.histogram reg "t.h1"
      ~buckets:(Obs.Metrics.linear_buckets ~start:1. ~width:1. ~count:8)
  in
  Obs.Metrics.observe h 3.;
  (* clamped to [min, max]: a lone sample is every quantile *)
  feq "p50 of one sample" 3. (Obs.Metrics.quantile h 0.5);
  feq "p99 of one sample" 3. (Obs.Metrics.quantile h 0.99);
  (* pinned: empty histogram quantile is 0., never nan — snapshots of it
     go over the wire and are compared structurally *)
  let empty =
    Obs.Metrics.histogram reg "t.h2"
      ~buckets:(Obs.Metrics.linear_buckets ~start:1. ~width:1. ~count:2)
  in
  feq "empty -> 0 (p50)" 0. (Obs.Metrics.quantile empty 0.5);
  feq "empty -> 0 (p99)" 0. (Obs.Metrics.quantile empty 0.99);
  (match
     Obs.Metrics.find reg "t.h2"
   with
  | Some (Obs.Metrics.Histogram { max; p50; _ }) ->
      feq "empty read max = 0" 0. max;
      feq "empty read p50 = 0" 0. p50
  | _ -> Alcotest.fail "t.h2 missing")

let test_snapshot_and_find () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg ~labels:[ ("i", "a") ] "z.c" in
  let _ = Obs.Metrics.counter reg ~labels:[ ("i", "b") ] "z.c" in
  let g = Obs.Metrics.gauge reg "a.g" in
  Obs.Metrics.incr ~by:7 c;
  Obs.Metrics.set g 1.5;
  let names = List.map (fun s -> s.Obs.Metrics.name) (Obs.Metrics.snapshot reg) in
  Alcotest.(check (list string)) "sorted by name then labels"
    [ "a.g"; "z.c"; "z.c" ] names;
  let zs = Obs.Metrics.snapshot ~prefix:"z." reg in
  Alcotest.(check int) "prefix filter" 2 (List.length zs);
  (match Obs.Metrics.find reg ~labels:[ ("i", "a") ] "z.c" with
  | Some (Obs.Metrics.Counter 7) -> ()
  | _ -> Alcotest.fail "find z.c{i=a} = Counter 7");
  Alcotest.(check bool) "find miss" true
    (Obs.Metrics.find reg "nope" = None);
  let d = Obs.Metrics.counter reg ~labels:[ ("i", "b"); ("k", "x") ] "z.c" in
  Obs.Metrics.incr ~by:2 d;
  Alcotest.(check (list int)) "sum_counters over label supersets" [ 9; 2; 0 ]
    [
      Obs.Metrics.sum_counters reg "z.c";
      Obs.Metrics.sum_counters reg ~labels:[ ("i", "b") ] "z.c";
      Obs.Metrics.sum_counters reg "a.g";
    ];
  Obs.Metrics.reset reg;
  Alcotest.(check int) "reset zeroes" 0 (Obs.Metrics.counter_value c)

(* --- Obs.Trace --- *)

let test_trace_ids_and_events () =
  let t = Obs.Trace.create ~capacity:64 () in
  let a = Obs.Trace.start t in
  let b = Obs.Trace.start t in
  Alcotest.(check bool) "ids positive and distinct" true (a > 0 && b > a);
  Obs.Trace.record t a ~time:1. ~site:0 Obs.Trace.Send;
  Obs.Trace.record t a ~time:2. ~site:0 Obs.Trace.Enqueue;
  Obs.Trace.record t b ~time:3. ~site:1 Obs.Trace.Send;
  Obs.Trace.record t a ~time:4. ~site:2 Obs.Trace.Deliver;
  Obs.Trace.record t Obs.Trace.none ~time:5. ~site:0 Obs.Trace.Send;
  Alcotest.(check int) "none is a no-op" 4 (Obs.Trace.recorded t);
  Alcotest.(check int) "per-trace filter" 3
    (List.length (Obs.Trace.events ~trace:a t));
  let s =
    List.find (fun s -> s.Obs.Trace.s_trace = a) (Obs.Trace.summaries t)
  in
  Alcotest.(check int) "hops = enqueues" 1 s.Obs.Trace.hops;
  Alcotest.(check int) "delivered" 1 s.Obs.Trace.delivers;
  feq "first_time" 1. s.Obs.Trace.first_time;
  feq "last_time" 4. s.Obs.Trace.last_time

let test_trace_disabled_and_sampling () =
  Alcotest.(check int) "disabled start = none" Obs.Trace.none
    (Obs.Trace.start Obs.Trace.disabled);
  Obs.Trace.record Obs.Trace.disabled 1 ~time:0. ~site:0 Obs.Trace.Send;
  Alcotest.(check int) "disabled records nothing" 0
    (Obs.Trace.recorded Obs.Trace.disabled);
  let t = Obs.Trace.create () in
  let ids = List.init 10 (fun _ -> Obs.Trace.start t) in
  Alcotest.(check (list int)) "every start sampled, ids ascending"
    (List.init 10 succ) ids;
  Alcotest.(check int) "started counts them" 10 (Obs.Trace.started t)

let test_trace_orphans () =
  let t = Obs.Trace.create ~capacity:64 () in
  let done_ = Obs.Trace.start t in
  let lost = Obs.Trace.start t in
  let inflight = Obs.Trace.start t in
  Obs.Trace.record t done_ ~time:1. ~site:0 Obs.Trace.Send;
  Obs.Trace.record t done_ ~time:2. ~site:1 Obs.Trace.Deliver;
  Obs.Trace.record t lost ~time:1. ~site:0 Obs.Trace.Send;
  Obs.Trace.record t inflight ~time:9. ~site:0 Obs.Trace.Send;
  let orphan_ids cutoff =
    List.map
      (fun s -> s.Obs.Trace.s_trace)
      (List.filter
         (fun s -> s.Obs.Trace.s_trace < cutoff)
         (Obs.Trace.orphans t))
  in
  Alcotest.(check (list int)) "terminated trace is not an orphan" [ lost ]
    (orphan_ids inflight);
  Alcotest.(check (list int)) "cutoff admits the in-flight one"
    [ lost; inflight ]
    (orphan_ids (inflight + 1));
  (* drop is terminal too *)
  Obs.Trace.record t lost ~time:3. ~site:0 (Obs.Trace.Drop "net:loss");
  Alcotest.(check (list int)) "drop terminates" [ inflight ]
    (orphan_ids (inflight + 1))

let test_trace_ring_eviction () =
  let t = Obs.Trace.create ~capacity:4 () in
  let a = Obs.Trace.start t in
  Obs.Trace.record t a ~time:0. ~site:0 Obs.Trace.Send;
  let b = Obs.Trace.start t in
  (* four more events push a's Send out of the ring *)
  Obs.Trace.record t b ~time:1. ~site:0 Obs.Trace.Send;
  Obs.Trace.record t b ~time:2. ~site:0 Obs.Trace.Enqueue;
  Obs.Trace.record t b ~time:3. ~site:0 Obs.Trace.Relay;
  Obs.Trace.record t b ~time:4. ~site:0 Obs.Trace.Enqueue;
  Alcotest.(check int) "recorded counts evicted events" 5
    (Obs.Trace.recorded t);
  Alcotest.(check int) "ring holds capacity" 4
    (List.length (Obs.Trace.events t));
  (* a has no terminal event, but its history is incomplete, not orphaned *)
  Alcotest.(check (list int)) "evicted history excluded from orphans" [ b ]
    (List.map
       (fun s -> s.Obs.Trace.s_trace)
       (Obs.Trace.orphans t));
  Obs.Trace.reset t;
  Alcotest.(check int) "reset empties the ring" 0
    (List.length (Obs.Trace.events t))

let test_metrics_remove () =
  let reg = Obs.Metrics.create () in
  let a = Obs.Metrics.counter reg ~labels:[ ("instance", "srv1") ] "t.c" in
  let b = Obs.Metrics.counter reg ~labels:[ ("instance", "srv2") ] "t.c" in
  Obs.Metrics.incr ~by:3 a;
  Obs.Metrics.incr ~by:5 b;
  Obs.Metrics.remove reg ~labels:[ ("instance", "srv1") ] "t.c";
  Alcotest.(check int) "srv1 gone" 1 (List.length (Obs.Metrics.snapshot reg));
  Alcotest.(check bool) "find miss after remove" true
    (Obs.Metrics.find reg ~labels:[ ("instance", "srv1") ] "t.c" = None);
  (* the old handle still works, it's just unregistered *)
  Obs.Metrics.incr a;
  Alcotest.(check int) "orphan handle keeps counting" 4
    (Obs.Metrics.counter_value a);
  (* re-registration starts a fresh series from zero *)
  let a' = Obs.Metrics.counter reg ~labels:[ ("instance", "srv1") ] "t.c" in
  Alcotest.(check int) "re-register from zero" 0 (Obs.Metrics.counter_value a')

let test_metrics_remove_where () =
  let reg = Obs.Metrics.create () in
  let _ = Obs.Metrics.counter reg ~labels:[ ("instance", "srv1") ] "t.x" in
  let _ = Obs.Metrics.gauge reg ~labels:[ ("instance", "srv1") ] "t.y" in
  let keep = Obs.Metrics.counter reg ~labels:[ ("instance", "srv2") ] "t.x" in
  Obs.Metrics.incr keep;
  Obs.Metrics.remove_where reg (fun ~name:_ ~labels ->
      List.mem ("instance", "srv1") labels);
  let names =
    List.map
      (fun s -> (s.Obs.Metrics.name, s.Obs.Metrics.labels))
      (Obs.Metrics.snapshot reg)
  in
  Alcotest.(check int) "only srv2 left" 1 (List.length names);
  Alcotest.(check bool) "srv2 survives" true
    (Obs.Metrics.find reg ~labels:[ ("instance", "srv2") ] "t.x"
    = Some (Obs.Metrics.Counter 1))

(* --- Obs.Trace control-plane operations --- *)

let dones t =
  List.filter_map
    (fun (e : Obs.Trace.event) ->
      match e.kind with Obs.Trace.Done s -> Some (e.trace, e.time, s) | _ -> None)
    (Obs.Trace.events t)

let notes t id =
  List.filter
    (fun (e : Obs.Trace.event) ->
      e.trace = id && match e.kind with Obs.Trace.Note _ -> true | _ -> false)
    (Obs.Trace.events t)

let test_span_tree () =
  let t = Obs.Trace.create ~capacity:16 () in
  let root = Obs.Trace.open_op t ~time:10. "chord.lookup" in
  let packet = Obs.Trace.open_op t ~parent:42 ~time:10.5 "i3.first_packet" in
  let child =
    Obs.Trace.open_op t ~parent:(Obs.Trace.op_id root) ~time:11. "chord.rpc"
  in
  Obs.Trace.note t child ~time:12. "ask addr=3";
  Obs.Trace.close_op t ~time:15. child;
  Obs.Trace.close_op t ~status:"error:exhausted" ~time:20. root;
  Alcotest.(check int) "started" 3 (Obs.Trace.started t);
  Alcotest.(check int) "open, note and close events" 6 (Obs.Trace.recorded t);
  let parent_of o =
    List.find_map
      (fun (e : Obs.Trace.event) ->
        match e.kind with
        | Obs.Trace.Op { parent; _ } when e.trace = Obs.Trace.op_id o ->
            Some parent
        | _ -> None)
      (Obs.Trace.events t)
  in
  Alcotest.(check (option int)) "child parent = root"
    (Some (Obs.Trace.op_id root)) (parent_of child);
  Alcotest.(check (option int)) "packet link" (Some 42) (parent_of packet);
  Alcotest.(check (option int)) "root is a root" (Some Obs.Trace.none)
    (parent_of root);
  Alcotest.(check int) "one annotation" 1
    (List.length (notes t (Obs.Trace.op_id child)));
  Alcotest.(check (list (triple int (float 1e-9) string)))
    "closed child then errored root"
    [
      (Obs.Trace.op_id child, 15., "ok");
      (Obs.Trace.op_id root, 20., "error:exhausted");
    ]
    (dones t);
  Alcotest.(check (array (float 1e-9))) "child duration" [| 4. |]
    (Obs.Trace.durations_ms ~op:"chord.rpc" t);
  Alcotest.(check (array (float 1e-9))) "open operations are skipped"
    [| 4.; 10. |] (Obs.Trace.durations_ms t)

let test_span_finish_idempotent () =
  let t = Obs.Trace.create ~capacity:8 () in
  let o = Obs.Trace.open_op t ~time:1. "op" in
  Obs.Trace.close_op t ~status:"timeout" ~time:2. o;
  (* second close must not record again or change the status *)
  Obs.Trace.close_op t ~time:99. o;
  Obs.Trace.note t o ~time:99. "late note";
  Alcotest.(check (list (triple int (float 1e-9) string)))
    "one Done, status and end time kept"
    [ (Obs.Trace.op_id o, 2., "timeout") ]
    (dones t);
  Alcotest.(check int) "late annotation dropped" 0
    (List.length (notes t (Obs.Trace.op_id o)))

let test_span_disabled_and_null () =
  let o = Obs.Trace.open_op Obs.Trace.disabled ~time:0. "op" in
  Alcotest.(check int) "disabled handle has id none" Obs.Trace.none
    (Obs.Trace.op_id o);
  Obs.Trace.note Obs.Trace.disabled o ~time:1. "ignored";
  Obs.Trace.close_op Obs.Trace.disabled ~time:2. o;
  Alcotest.(check int) "disabled records nothing" 0
    (Obs.Trace.recorded Obs.Trace.disabled);
  Alcotest.(check bool) "disabled reports disabled" false
    (Obs.Trace.enabled Obs.Trace.disabled);
  let t = Obs.Trace.create () in
  Obs.Trace.note t Obs.Trace.null_op ~time:1. "ignored";
  Obs.Trace.close_op t ~time:2. Obs.Trace.null_op;
  Alcotest.(check int) "null handle is inert" 0 (Obs.Trace.recorded t)

let test_span_ring_capacity () =
  let t = Obs.Trace.create ~capacity:6 () in
  for i = 1 to 5 do
    let o = Obs.Trace.open_op t ~time:(float_of_int i) "op" in
    Obs.Trace.close_op t ~time:(float_of_int i +. 0.5) o
  done;
  Alcotest.(check int) "recorded counts evictions" 10 (Obs.Trace.recorded t);
  Alcotest.(check int) "ring holds capacity" 6
    (List.length (Obs.Trace.events t));
  Alcotest.(check (list (float 1e-9))) "oldest first, newest kept"
    [ 3.; 4.; 5. ]
    (List.filter_map
       (fun (e : Obs.Trace.event) ->
         match e.kind with Obs.Trace.Op _ -> Some e.time | _ -> None)
       (Obs.Trace.events t));
  Obs.Trace.reset t;
  Alcotest.(check int) "reset empties" 0 (List.length (Obs.Trace.events t))

(* An operation whose opening event was evicted has no start time: its
   close must not count as a duration measured from some other event. *)
let test_span_durations_skip_evicted () =
  let t = Obs.Trace.create ~capacity:3 () in
  let old = Obs.Trace.open_op t ~time:0. "op" in
  let young = Obs.Trace.open_op t ~time:5. "op" in
  Obs.Trace.close_op t ~time:6. young;
  Obs.Trace.close_op t ~time:7. old;
  Alcotest.(check int) "the opening of [old] was evicted" 3
    (List.length (Obs.Trace.events t));
  Alcotest.(check (array (float 1e-9))) "only [young] measured" [| 1. |]
    (Obs.Trace.durations_ms ~op:"op" t)

(* --- Obs.Series --- *)

let test_series_windows () =
  let st = Obs.Series.store ~capacity:8 () in
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "t.c" in
  for i = 1 to 5 do
    Obs.Metrics.incr ~by:i c;
    Obs.Series.scrape st ~time:(float_of_int (i * 100)) reg
  done;
  let s = Option.get (Obs.Series.get st "t.c") in
  Alcotest.(check int) "5 points" 5 (Obs.Series.length s);
  (* counter values: 1, 3, 6, 10, 15 at t = 100..500 *)
  feq "latest" 15. (Option.get (Obs.Series.latest s)).Obs.Series.value;
  feq "delta over [300,500]" 9.
    (Option.get (Obs.Series.delta_over s ~now:500. ~window_ms:200.));
  feq "rate over [300,500]" 45.
    (Option.get (Obs.Series.rate_per_sec s ~now:500. ~window_ms:200.));
  Alcotest.(check bool) "delta needs two points" true
    (Obs.Series.delta_over s ~now:500. ~window_ms:50. = None)

let test_series_ring_and_histograms () =
  let st = Obs.Series.store ~capacity:4 () in
  let reg = Obs.Metrics.create () in
  let h =
    Obs.Metrics.histogram reg "t.h"
      ~buckets:(Obs.Metrics.linear_buckets ~start:1. ~width:1. ~count:8)
  in
  (* first scrape with an empty histogram: only .count appears *)
  Obs.Series.scrape st ~time:0. reg;
  Alcotest.(check bool) "empty hist has no quantile series" true
    (Obs.Series.get st "t.h.p99" = None);
  feq "empty hist count point" 0.
    (Option.get (Obs.Series.latest (Option.get (Obs.Series.get st "t.h.count"))))
      .Obs.Series.value;
  for i = 1 to 6 do
    Obs.Metrics.observe h (float_of_int i);
    Obs.Series.scrape st ~time:(float_of_int i) reg
  done;
  let count = Option.get (Obs.Series.get st "t.h.count") in
  Alcotest.(check int) "ring capped" 4 (Obs.Series.length count);
  feq "count tracks" 6. (Option.get (Obs.Series.latest count)).Obs.Series.value;
  Alcotest.(check bool) "p50 series exists once observed" true
    (Obs.Series.get st "t.h.p50" <> None);
  Alcotest.(check int) "scrapes counted" 7 (Obs.Series.scrapes st)

(* --- Obs.Health --- *)

let scrape_feed reg health data =
  (* data: (time, sent_increment, received_increment) list *)
  let s = Obs.Metrics.counter reg "f.sent" in
  let r = Obs.Metrics.counter reg "f.received" in
  List.map
    (fun (time, ds, dr) ->
      Obs.Metrics.incr ~by:ds s;
      Obs.Metrics.incr ~by:dr r;
      (time, Obs.Health.scrape health ~time))
    data

let ratio_rule window_ms =
  {
    Obs.Health.rule = "delivery";
    signal =
      Obs.Health.Ratio
        {
          num = "f.received";
          num_labels = [];
          den = "f.sent";
          den_labels = [];
          window_ms;
        };
    bound = Obs.Health.At_least { ok = 0.9; degraded = 0.5 };
  }

let test_health_verdict_transitions () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Health.create ~rules:[ ratio_rule 1_000. ] reg in
  let episodes = ref 0 in
  Obs.Health.on_violation h (fun evals ->
      incr episodes;
      Alcotest.(check bool) "hook sees the breaching evaluations" true
        (List.exists
           (fun (e : Obs.Health.evaluation) ->
             e.Obs.Health.verdict = Obs.Health.Violated)
           evals));
  (* 600 ms spacing under a 1000 ms window: each scrape's window holds
     exactly the previous and the current point, so the windowed ratio is
     the per-interval delivered/sent. *)
  let verdicts =
    scrape_feed reg h
      [
        (0., 0, 0) (* single point: no delta, no data *);
        (600., 4, 4) (* 4/4 = 1.0: Ok *);
        (1200., 4, 3) (* 3/4 = 0.75: Degraded *);
        (1800., 4, 1) (* 1/4 = 0.25: Violated (episode 1) *);
        (2400., 4, 1) (* still 0.25: Violated, same episode *);
        (3000., 4, 4) (* recovered: Ok *);
        (3600., 4, 4) (* Ok *);
        (4200., 4, 0) (* 0/4: Violated (episode 2) *);
      ]
    |> List.map (fun (_, evals) -> Obs.Health.overall evals)
  in
  let expect =
    [
      Obs.Health.Ok; Obs.Health.Ok; Obs.Health.Degraded; Obs.Health.Violated;
      Obs.Health.Violated; Obs.Health.Ok; Obs.Health.Ok; Obs.Health.Violated;
    ]
  in
  List.iteri
    (fun i (got, want) ->
      Alcotest.(check string)
        (Printf.sprintf "scrape %d" i)
        (Obs.Health.verdict_to_string want)
        (Obs.Health.verdict_to_string got))
    (List.combine verdicts expect);
  Alcotest.(check int) "edge-triggered: one hook call per episode" 2 !episodes;
  let ok, degraded, violated = Obs.Health.counts h in
  Alcotest.(check (list int)) "history counts" [ 4; 1; 3 ]
    [ ok; degraded; violated ];
  (match Obs.Health.first_breach_after h 100. with
  | Some t -> feq "first breach" 1200. t
  | None -> Alcotest.fail "expected a breach");
  match Obs.Health.first_ok_after h 1200. with
  | Some t -> feq "first ok after breach" 3000. t
  | None -> Alcotest.fail "expected recovery"

(* --- Obs.Probe --- *)

let qtest ?(count = 200) ~print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen prop)

let probe_payload seq = Printf.sprintf "i3flow f %d" seq

(* What a flow's receiver may see: its own probes, duplicated, reordered
   or never sent ([Deliver]), and payloads that are not its probes at
   all, including ones with its prefix and a seq that is not plain
   decimal ([Other]). *)
type probe_op = Send | Deliver of int | Other of string

let gen_probe_run =
  QCheck2.Gen.(
    pair (int_range 0 400)
      (list_size (int_range 0 80)
         (pair (int_range 0 50)
            (frequency
               [
                 (3, pure Send);
                 (4, map (fun seq -> Deliver seq) (int_range (-2) 25));
                 ( 1,
                   map
                     (fun p -> Other p)
                     (oneofl
                        [
                          "i3flow g 0"; "i3flow f"; "i3flow f "; "i3flow f x";
                          "i3flow f 1x"; "i3flow f 01"; "i3flow f +1";
                          "i3flow f 0x1"; "i3flow f 1 "; "i3cons 1"; "";
                        ]) );
               ]))))

let print_probe_run (after, ops) =
  Printf.sprintf "after %d: %s" after
    (String.concat "; "
       (List.map
          (fun (dt, op) ->
            Printf.sprintf "+%d %s" dt
              (match op with
              | Send -> "send"
              | Deliver seq -> Printf.sprintf "deliver %d" seq
              | Other p -> Printf.sprintf "other %S" p))
          ops))

(* Drive a flow through [ops] next to a model of its delivered set: a
   seq counts once, on its first arrival after it was sent. *)
let run_probe ops =
  let p = Obs.Probe.create ~metrics:(Obs.Metrics.create ()) ~name:"f" ~now:0. in
  let now = ref 0. and sent = ref 0 and counted = ref [] in
  List.iter
    (fun (dt, op) ->
      now := !now +. float_of_int dt;
      match op with
      | Send ->
          if Obs.Probe.next p <> probe_payload !sent then
            failwith "payload format";
          incr sent
      | Deliver seq ->
          Obs.Probe.on_receive p ~now:!now (probe_payload seq);
          if seq >= 0 && seq < !sent && not (List.mem_assoc seq !counted) then
            counted := (seq, !now) :: !counted
      | Other payload -> Obs.Probe.on_receive p ~now:!now payload)
    ops;
  (p, !now, !sent, List.map snd !counted)

let prop_probe_bookkeeping (after, ops) =
  let p, now, sent, times = run_probe ops in
  let after = float_of_int after in
  let ratio = Obs.Probe.delivery_ratio p in
  let first_after =
    match List.filter (fun t -> t >= after) times with
    | [] -> None
    | l -> Some (List.fold_left Float.min Float.infinity l -. after)
  in
  let marks = List.sort Float.compare (0. :: now :: times) in
  let rec gaps_within = function
    | a :: (b :: _ as rest) ->
        b -. a <= Obs.Probe.longest_outage p ~now && gaps_within rest
    | _ -> true
  in
  Obs.Probe.sent p = sent
  && Obs.Probe.received p = List.length times
  && Obs.Probe.received p <= sent
  && ratio >= 0. && ratio <= 1.
  && Obs.Probe.time_to_recovery p ~after = first_after
  && gaps_within marks

let test_probe_counts_reordered_seqs () =
  (* Seq 2 overtakes seq 1: both count.  A "highest seq seen" rule would
     drop seq 1 as a duplicate. *)
  let p = Obs.Probe.create ~metrics:(Obs.Metrics.create ()) ~name:"f" ~now:0. in
  for _ = 0 to 2 do
    ignore (Obs.Probe.next p)
  done;
  Obs.Probe.on_receive p ~now:10. (probe_payload 2);
  Obs.Probe.on_receive p ~now:11. (probe_payload 1);
  Obs.Probe.on_receive p ~now:12. (probe_payload 1);
  Alcotest.(check int) "received" 2 (Obs.Probe.received p);
  feq "ratio" (2. /. 3.) (Obs.Probe.delivery_ratio p);
  Alcotest.(check (option (float 0.))) "recovery from the first arrival"
    (Some 5.) (Obs.Probe.time_to_recovery p ~after:5.)

let test_probe_ignores_non_numeric_seq () =
  let reg = Obs.Metrics.create () in
  let p = Obs.Probe.create ~metrics:reg ~name:"f" ~now:0. in
  ignore (Obs.Probe.next p);
  List.iter
    (Obs.Probe.on_receive p ~now:1.)
    [ "i3flow f abc"; "i3flow f 0abc"; "i3flow f "; "i3flow f 99999999999999999999" ];
  Alcotest.(check int) "nothing counted" 0 (Obs.Probe.received p);
  Alcotest.(check bool) "counter untouched" true
    (Obs.Metrics.find reg ~labels:(Obs.Probe.labels p) "probe.received"
    = Some (Obs.Metrics.Counter 0));
  Alcotest.check_raises "one flow per name and registry"
    (Invalid_argument "Obs.Probe.create: duplicate flow f") (fun () ->
      ignore (Obs.Probe.create ~metrics:reg ~name:"f" ~now:0.))

let test_health_rule_validation () =
  let reg = Obs.Metrics.create () in
  let rejected bound =
    try
      ignore
        (Obs.Health.create
           ~rules:
             [
               {
                 Obs.Health.rule = "bad";
                 signal = Obs.Health.Latest { metric = "x"; labels = [] };
                 bound;
               };
             ]
           reg);
      false
    with Invalid_argument _ -> true
  in
  (* malformed rules are rejected at create *)
  Alcotest.(check bool) "inverted At_least rejected" true
    (rejected (Obs.Health.At_least { ok = 0.1; degraded = 0.9 }));
  Alcotest.(check bool) "inverted At_most rejected" true
    (rejected (Obs.Health.At_most { ok = 0.9; degraded = 0.1 }))

let test_health_missing_data_is_ok () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Health.create ~rules:[ ratio_rule 500. ] reg in
  let evals = Obs.Health.scrape h ~time:0. in
  (match evals with
  | [ e ] ->
      Alcotest.(check bool) "no data -> no value" true (e.Obs.Health.value = None);
      Alcotest.(check string) "no data -> ok" "ok"
        (Obs.Health.verdict_to_string e.Obs.Health.verdict)
  | l -> Alcotest.failf "expected 1 evaluation, got %d" (List.length l));
  Alcotest.(check int) "history records the scrape" 1
    (List.length (Obs.Health.history h))

(* --- Trace.orphans across ring wraparound --- *)

let test_trace_orphans_wraparound () =
  let t = Obs.Trace.create ~capacity:8 () in
  (* Old trace whose whole history (including its Send) will be evicted. *)
  let ancient = Obs.Trace.start t in
  Obs.Trace.record t ancient ~time:0. ~site:0 Obs.Trace.Send;
  (* Force > 2 full wraparounds of the 8-slot ring. *)
  let finished = ref [] in
  for i = 1 to 9 do
    let tr = Obs.Trace.start t in
    Obs.Trace.record t tr ~time:(float_of_int i) ~site:0 Obs.Trace.Send;
    Obs.Trace.record t tr ~time:(float_of_int i +. 0.5) ~site:1
      Obs.Trace.Deliver;
    finished := tr :: !finished
  done;
  let lost = Obs.Trace.start t in
  Obs.Trace.record t lost ~time:100. ~site:0 Obs.Trace.Send;
  let inflight = Obs.Trace.start t in
  Obs.Trace.record t inflight ~time:101. ~site:0 Obs.Trace.Send;
  Alcotest.(check int) "ring at capacity" 8 (List.length (Obs.Trace.events t));
  let orphan_ids cutoff =
    List.map
      (fun s -> s.Obs.Trace.s_trace)
      (List.filter
         (fun s -> s.Obs.Trace.s_trace < cutoff)
         (Obs.Trace.orphans t))
  in
  (* ancient's first event was evicted: incomplete history, not an orphan;
     inflight's id is >= the cutoff: possibly still in flight, excluded. *)
  Alcotest.(check (list int)) "only the genuinely lost trace" [ lost ]
    (orphan_ids inflight);
  (* raising the cutoff admits the in-flight trace *)
  Alcotest.(check (list int)) "cutoff boundary is exclusive"
    [ lost; inflight ]
    (orphan_ids (inflight + 1));
  (* terminating the lost trace empties the orphan set at the old cutoff *)
  Obs.Trace.record t lost ~time:102. ~site:0 (Obs.Trace.Drop "net:loss");
  Alcotest.(check (list int)) "drop terminates across wraparound" []
    (orphan_ids inflight)

(* --- Json --- *)

let test_json_render () =
  let j =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd");
        ("i", Json.Int (-3));
        ("f", Json.Float 2.5);
        ("whole", Json.Float 4.);
        ("nan", Json.Float Float.nan);
        ("l", Json.List [ Json.Bool true; Json.Null ]);
        ("o", Json.Obj []);
      ]
  in
  Alcotest.(check string) "compact rendering"
    "{\"s\":\"a\\\"b\\\\c\\nd\",\"i\":-3,\"f\":2.5,\"whole\":4.0,\"nan\":null,\"l\":[true,null],\"o\":{}}"
    (Json.to_string j)

let test_json_files () =
  let path = Filename.temp_file "test_obs" ".json" in
  Json.to_file ~path (Json.Obj [ ("ok", Json.Bool true) ]);
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Alcotest.(check string) "to_file" "{\"ok\":true}" line;
  Json.lines_to_file ~path [ Json.Int 1; Json.Int 2 ];
  let ic = open_in path in
  let l1 = input_line ic in
  let l2 = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check (pair string string)) "lines_to_file" ("1", "2") (l1, l2)

let test_csv_rfc4180 () =
  Alcotest.(check string) "plain passes through" "abc" (Obs.Sink.csv_cell "abc");
  Alcotest.(check string) "comma quoted" "\"a,b\"" (Obs.Sink.csv_cell "a,b");
  Alcotest.(check string) "quote doubled" "\"a\"\"b\""
    (Obs.Sink.csv_cell "a\"b");
  Alcotest.(check string) "LF quoted" "\"a\nb\"" (Obs.Sink.csv_cell "a\nb");
  Alcotest.(check string) "CR quoted" "\"a\rb\"" (Obs.Sink.csv_cell "a\rb");
  Alcotest.(check string) "empty cell" "" (Obs.Sink.csv_cell "");
  Alcotest.(check string) "row escapes per cell" "x,\"a,b\",\"q\"\"\""
    (Obs.Sink.csv_row [ "x"; "a,b"; "q\"" ])

let test_trace_summaries_csv_quoting () =
  let t = Obs.Trace.create () in
  let tr = Obs.Trace.start t in
  Obs.Trace.record t tr ~time:1. ~site:0 Obs.Trace.Send;
  Obs.Trace.record t tr ~time:2. ~site:0 (Obs.Trace.Drop "bad, \"cause\"");
  Obs.Trace.record t tr ~time:3. ~site:0 (Obs.Trace.Drop "plain");
  let header, row =
    match
      String.split_on_char '\n'
        (Obs.Sink.trace_summaries_csv (Obs.Trace.summaries t))
    with
    | [ header; row; "" ] -> (header, row)
    | lines -> Alcotest.failf "expected 2 lines, got %d" (List.length lines - 1)
  in
  Alcotest.(check string) "header"
    "trace,sends,hops,relays,delivers,drops,drop_causes,first_ms,last_ms"
    header;
  (* the two causes join with a comma INSIDE one quoted cell, and the
     embedded quote doubles, so the row still has exactly 9 columns for
     a compliant reader *)
  let quoted = "\"bad, \"\"cause\"\",plain\"" in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "drop causes cell is RFC-4180 quoted" true
    (contains row quoted)

let test_sink_render () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg ~labels:[ ("k", "v") ] "t.c" in
  Obs.Metrics.incr ~by:3 c;
  let sample = List.hd (Obs.Metrics.snapshot reg) in
  Alcotest.(check string) "sample json"
    "{\"name\":\"t.c\",\"labels\":{\"k\":\"v\"},\"kind\":\"counter\",\"value\":3}"
    (Json.to_string (Obs.Sink.sample_to_json sample));
  Alcotest.(check string) "labels_to_string" "k=v"
    (Obs.Sink.labels_to_string sample.Obs.Metrics.labels)

(* --- the telemetry plane: drain, assemble, ingest, scrape --- *)

let test_trace_drain () =
  let t = Obs.Trace.create ~capacity:8 () in
  let a = Obs.Trace.start t in
  Obs.Trace.record t a ~time:1. ~site:0 Obs.Trace.Send;
  Obs.Trace.record t a ~time:2. ~site:1 Obs.Trace.Deliver;
  let evs = Obs.Trace.drain t in
  Alcotest.(check int) "drained both events" 2 (List.length evs);
  Alcotest.(check int) "ring empty after drain" 0
    (List.length (Obs.Trace.events t));
  Alcotest.(check int) "second drain yields nothing" 0
    (List.length (Obs.Trace.drain t));
  (* unlike [reset], draining must not restart the id sequence: a
     collector scraping periodically would otherwise see two distinct
     packets share a trace id *)
  let b = Obs.Trace.start t in
  Alcotest.(check bool) "ids keep increasing across drains" true (b > a);
  Alcotest.(check int) "disabled drain is empty" 0
    (List.length (Obs.Trace.drain Obs.Trace.disabled))

let test_trace_assemble () =
  let e trace time site kind = { Obs.Trace.trace; time; site; kind } in
  (* two traces interleaved and out of order, as if drained from three
     daemons at sites 10/20/30 *)
  let evs =
    [
      e 2 5. 30 Obs.Trace.Deliver;
      e 1 1. 10 Obs.Trace.Relay;
      e 2 4. 20 Obs.Trace.Trigger_match;
      e 1 1. 10 Obs.Trace.Send;
      e 2 3. 10 Obs.Trace.Relay;
      e 1 2. 20 (Obs.Trace.Drop "ttl");
      e 0 9. 99 Obs.Trace.Send;  (* untraced: must be skipped *)
    ]
  in
  match Obs.Trace.assemble evs with
  | [ t1; t2 ] ->
      Alcotest.(check int) "trees sorted by trace id" 1 t1.Obs.Trace.a_trace;
      Alcotest.(check int) "second tree" 2 t2.Obs.Trace.a_trace;
      Alcotest.(check (list string))
        "time order, ties broken by kind rank"
        [ "send"; "relay"; "drop:ttl" ]
        (List.map
           (fun ev -> Obs.Trace.kind_to_string ev.Obs.Trace.kind)
           t1.Obs.Trace.a_events);
      Alcotest.(check (list int)) "sites in first-seen order" [ 10; 20 ]
        t1.Obs.Trace.a_sites;
      Alcotest.(check bool) "drop is terminal" true t1.Obs.Trace.a_terminal;
      Alcotest.(check (list int)) "cross-process hop path" [ 10; 20; 30 ]
        t2.Obs.Trace.a_sites;
      Alcotest.(check bool) "deliver is terminal" true t2.Obs.Trace.a_terminal
  | l -> Alcotest.failf "expected 2 trees, got %d" (List.length l)

let test_series_ingest () =
  let st = Obs.Series.store ~capacity:8 () in
  (* label order must not matter: ingest re-canonicalises *)
  Obs.Series.ingest st ~time:1.
    [
      {
        Obs.Metrics.name = "m";
        labels = [ ("z", "1"); ("a", "2") ];
        value = Obs.Metrics.Counter 3;
      };
    ];
  Obs.Series.ingest st ~time:2.
    [
      {
        Obs.Metrics.name = "m";
        labels = [ ("a", "2"); ("z", "1") ];
        value = Obs.Metrics.Counter 5;
      };
    ];
  match Obs.Series.get st ~labels:[ ("z", "1"); ("a", "2") ] "m" with
  | None -> Alcotest.fail "ingested series not found"
  | Some s ->
      Alcotest.(check int) "both points in one series" 2 (Obs.Series.length s);
      feq "latest value" 5.
        (match Obs.Series.latest s with
        | Some p -> p.Obs.Series.value
        | None -> nan)

let test_health_ingest_and_shared_store () =
  let store = Obs.Series.store ~capacity:16 () in
  let rules =
    [
      {
        Obs.Health.rule = "errs";
        signal =
          Obs.Health.Latest
            { metric = "errs"; labels = [ ("target", "a") ] };
        bound = Obs.Health.At_most { ok = 0.; degraded = 0. };
      };
    ]
  in
  let h = Obs.Health.create ~store ~rules (Obs.Metrics.create ()) in
  Alcotest.(check bool) "monitor judges the shared store" true
    (Obs.Health.store h == store);
  (* no data yet: Ok *)
  Alcotest.(check bool) "empty store is Ok" true
    (Obs.Health.overall (Obs.Health.evaluate h ~time:0.) = Obs.Health.Ok);
  (* a scraped snapshot with an error lands as Violated *)
  let sample v =
    {
      Obs.Metrics.name = "errs";
      labels = [ ("target", "a") ];
      value = Obs.Metrics.Counter v;
    }
  in
  Alcotest.(check bool) "ingest judges the snapshot" true
    (Obs.Health.overall (Obs.Health.ingest h ~time:10. [ sample 1 ])
    = Obs.Health.Violated);
  (* an external writer (the scraper) feeding the store directly is
     judged by evaluate without any local sampling *)
  Obs.Series.ingest store ~time:20. [ sample 0 ];
  Alcotest.(check bool) "evaluate sees external writes" true
    (Obs.Health.overall (Obs.Health.evaluate h ~time:20.) = Obs.Health.Ok);
  let ok, deg, vio = Obs.Health.counts h in
  Alcotest.(check (list int)) "history counts all three" [ 2; 0; 1 ]
    [ ok; deg; vio ]

let test_scrape_state_machine () =
  let scr =
    Obs.Scrape.create ~interval_ms:100. ~timeout_ms:50.
      [
        { Obs.Scrape.addr = 1; instance = "a" };
        { Obs.Scrape.addr = 2; instance = "b" };
      ]
  in
  (* first tick polls every target immediately *)
  let reqs = Obs.Scrape.tick scr ~now:0. in
  Alcotest.(check int) "first tick polls all targets" 2 (List.length reqs);
  Alcotest.(check int) "pending" 2 (Obs.Scrape.pending scr);
  Alcotest.(check int) "no repoll before the interval" 0
    (List.length (Obs.Scrape.tick scr ~now:10.));
  (* answer target a's request *)
  let ra = List.find (fun r -> r.Obs.Scrape.dst = 1) reqs in
  let ev =
    { Obs.Trace.trace = 5; time = 1.; site = 9; kind = Obs.Trace.Relay }
  in
  let sample =
    {
      Obs.Metrics.name = "m";
      labels = [ ("instance", "x") ];
      value = Obs.Metrics.Counter 7;
    }
  in
  Alcotest.(check bool) "in-flight nonce accepted" true
    (Obs.Scrape.on_response scr ~now:20. ~nonce:ra.Obs.Scrape.nonce
       ~samples:[ sample ] ~events:[ ev ]);
  Alcotest.(check bool) "duplicate nonce rejected" false
    (Obs.Scrape.on_response scr ~now:21. ~nonce:ra.Obs.Scrape.nonce
       ~samples:[ sample ] ~events:[]);
  Alcotest.(check bool) "forged nonce rejected" false
    (Obs.Scrape.on_response scr ~now:21. ~nonce:424242 ~samples:[] ~events:[]);
  (* accepted samples are retagged with the target label *)
  (match
     Obs.Series.get (Obs.Scrape.store scr)
       ~labels:[ ("instance", "x"); ("target", "a") ]
       "m"
   with
  | Some _ -> ()
  | None -> Alcotest.fail "sample not retagged with (target, instance)");
  Alcotest.(check bool) "last_seen records the response" true
    (Obs.Scrape.last_seen scr "a" = Some 20.);
  Alcotest.(check bool) "unanswered target has no last_seen" true
    (Obs.Scrape.last_seen scr "b" = None);
  (* target b's request expires; the next interval polls again *)
  let reqs2 = Obs.Scrape.tick scr ~now:120. in
  Alcotest.(check int) "expired unanswered request" 1 (Obs.Scrape.timeouts scr);
  Alcotest.(check int) "next interval repolls all" 2 (List.length reqs2);
  Alcotest.(check (list int)) "poll/response accounting" [ 4; 1 ]
    [ Obs.Scrape.polls scr; Obs.Scrape.responses scr ];
  (* drained events accumulate until taken *)
  Alcotest.(check int) "events kept" 1 (List.length (Obs.Scrape.events scr));
  Alcotest.(check int) "take_events drains" 1
    (List.length (Obs.Scrape.take_events scr));
  Alcotest.(check int) "accumulator now empty" 0
    (List.length (Obs.Scrape.events scr))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "re-register = same handle" `Quick
            test_reregister_same_handle;
          Alcotest.test_case "kind mismatch rejected" `Quick test_kind_mismatch;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "single observation" `Quick
            test_histogram_single_observation;
          Alcotest.test_case "snapshot and find" `Quick test_snapshot_and_find;
          Alcotest.test_case "remove" `Quick test_metrics_remove;
          Alcotest.test_case "remove_where" `Quick test_metrics_remove_where;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ids and events" `Quick test_trace_ids_and_events;
          Alcotest.test_case "disabled and sampling" `Quick
            test_trace_disabled_and_sampling;
          Alcotest.test_case "orphans" `Quick test_trace_orphans;
          Alcotest.test_case "ring eviction" `Quick test_trace_ring_eviction;
          Alcotest.test_case "orphans across wraparound" `Quick
            test_trace_orphans_wraparound;
        ] );
      ( "span",
        [
          Alcotest.test_case "tree, trace link, annotations" `Quick
            test_span_tree;
          Alcotest.test_case "finish is idempotent" `Quick
            test_span_finish_idempotent;
          Alcotest.test_case "disabled and null handles" `Quick
            test_span_disabled_and_null;
          Alcotest.test_case "ring capacity" `Quick test_span_ring_capacity;
          Alcotest.test_case "durations skip evicted openings" `Quick
            test_span_durations_skip_evicted;
        ] );
      ( "series",
        [
          Alcotest.test_case "windows, deltas, rates" `Quick test_series_windows;
          Alcotest.test_case "ring and histogram expansion" `Quick
            test_series_ring_and_histograms;
        ] );
      ( "health",
        [
          Alcotest.test_case "verdict transitions and episodes" `Quick
            test_health_verdict_transitions;
          Alcotest.test_case "rule validation" `Quick
            test_health_rule_validation;
          Alcotest.test_case "missing data is ok" `Quick
            test_health_missing_data_is_ok;
        ] );
      ( "probe",
        [
          qtest ~print:print_probe_run "bookkeeping matches a distinct-seq model"
            gen_probe_run prop_probe_bookkeeping;
          Alcotest.test_case "reordered seqs count" `Quick
            test_probe_counts_reordered_seqs;
          Alcotest.test_case "non-numeric seq ignored" `Quick
            test_probe_ignores_non_numeric_seq;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "trace drain" `Quick test_trace_drain;
          Alcotest.test_case "cross-process assembly" `Quick
            test_trace_assemble;
          Alcotest.test_case "series ingest" `Quick test_series_ingest;
          Alcotest.test_case "health ingest and shared store" `Quick
            test_health_ingest_and_shared_store;
          Alcotest.test_case "scrape state machine" `Quick
            test_scrape_state_machine;
        ] );
      ( "json",
        [
          Alcotest.test_case "render" `Quick test_json_render;
          Alcotest.test_case "files" `Quick test_json_files;
          Alcotest.test_case "sink" `Quick test_sink_render;
          Alcotest.test_case "csv rfc4180" `Quick test_csv_rfc4180;
          Alcotest.test_case "trace summaries csv quoting" `Quick
            test_trace_summaries_csv_quoting;
        ] );
    ]
