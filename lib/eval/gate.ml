type direction = Higher_better | Lower_better | Exact

type check = {
  key : string;
  direction : direction;
  rel_tol : float;
  abs_tol : float;
}

let check ?(rel_tol = 0.) ?(abs_tol = 0.) ~direction key =
  if rel_tol < 0. || abs_tol < 0. then
    invalid_arg "Gate.check: negative tolerance";
  { key; direction; rel_tol; abs_tol }

type result = {
  check : check;
  baseline : float option;
  current : float option;
  ok : bool;
  note : string;
}

let value_at json key = Option.bind (Json.path json key) Json.to_float_opt

let allowance c baseline = (Float.abs baseline *. c.rel_tol) +. c.abs_tol

let within c ~baseline ~current =
  let slack = allowance c baseline in
  match c.direction with
  | Lower_better -> current <= baseline +. slack
  | Higher_better -> current >= baseline -. slack
  | Exact -> Float.abs (current -. baseline) <= slack

let direction_to_string = function
  | Higher_better -> "higher-better"
  | Lower_better -> "lower-better"
  | Exact -> "exact"

let judge c ~baseline ~current =
  match (baseline, current) with
  | None, None ->
      (* Checked key absent everywhere: the check list is stale. *)
      { check = c; baseline; current; ok = false; note = "key missing from both files" }
  | Some _, None ->
      { check = c; baseline; current; ok = false; note = "missing from current run" }
  | None, Some _ ->
      (* A metric the baseline predates can't regress; flag for re-baseline. *)
      { check = c; baseline; current; ok = true; note = "new metric (re-baseline to track)" }
  | Some b, Some v ->
      if within c ~baseline:b ~current:v then
        { check = c; baseline; current; ok = true; note = "ok" }
      else
        let note =
          Printf.sprintf "REGRESSION: %s moved %+.4g (%.4g -> %.4g), tolerance %.4g (%s)"
            c.key (v -. b) b v (allowance c b)
            (direction_to_string c.direction)
        in
        { check = c; baseline; current; ok = false; note }

let compare_json ~baseline ~current checks =
  List.map
    (fun c ->
      judge c ~baseline:(value_at baseline c.key) ~current:(value_at current c.key))
    checks

type relation = { lesser : string; greater : string }

let relation ~lesser ~greater =
  if lesser = greater then invalid_arg "Gate.relation: keys must differ";
  { lesser; greater }

(* A relation is judged inside ONE file: the current bench run must
   itself exhibit [lesser < greater].  Reuses [result] so relation
   verdicts render alongside the baseline diffs: [current] carries the
   lesser value, [baseline] the greater one. *)
let check_relations ~current relations =
  List.map
    (fun r ->
      let c =
        {
          key = Printf.sprintf "%s < %s" r.lesser r.greater;
          direction = Lower_better;
          rel_tol = 0.;
          abs_tol = 0.;
        }
      in
      let lv = value_at current r.lesser in
      let gv = value_at current r.greater in
      match (lv, gv) with
      | None, _ | _, None ->
          {
            check = c;
            baseline = gv;
            current = lv;
            ok = false;
            note = "relation key missing from current run";
          }
      | Some l, Some g ->
          if l < g then
            { check = c; baseline = gv; current = lv; ok = true; note = "ok" }
          else
            {
              check = c;
              baseline = gv;
              current = lv;
              ok = false;
              note =
                Printf.sprintf "RELATION VIOLATED: %s = %.4g not below %s = %.4g"
                  r.lesser l r.greater g;
            })
    relations

let mode_mismatch ~baseline ~current =
  let mode j =
    match Json.path j "mode" with Some (Json.String s) -> s | _ -> "?"
  in
  let b = mode baseline and c = mode current in
  if b = c then None else Some (b, c)

let passed results = List.for_all (fun r -> r.ok) results

let render results =
  let fmt_opt = function
    | Some v -> Printf.sprintf "%.6g" v
    | None -> "-"
  in
  let width =
    List.fold_left (fun w r -> max w (String.length r.check.key)) 8 results
  in
  List.iter
    (fun r ->
      Printf.printf "  %s %-*s baseline=%-12s current=%-12s %s\n"
        (if r.ok then "ok  " else "FAIL")
        width r.check.key (fmt_opt r.baseline) (fmt_opt r.current) r.note)
    results;
  let fails = List.length (List.filter (fun r -> not r.ok) results) in
  if fails = 0 then
    Printf.printf "  gate: %d checks passed\n" (List.length results)
  else
    Printf.printf "  gate: %d of %d checks FAILED\n" fails
      (List.length results)

(* Only metrics that are deterministic functions of the seeds and the
   virtual clock are gated tightly.  Wall-clock numbers (microbenchmark
   timings, generated_at) vary by machine; the trigger-table hot-path
   rates and match p99 are wall-clock too, but they guard the data
   plane's core structure, so they are gated with tolerances wide
   enough to absorb machine noise while still catching an
   order-of-magnitude collapse (e.g. the prefix hash table degenerating
   into a linear scan). *)
let default_checks =
  [
    check "delivery.ratio" ~direction:Higher_better ~rel_tol:0.05;
    check "routing_hops.p50" ~direction:Lower_better ~rel_tol:0.25 ~abs_tol:0.5;
    check "routing_hops.p90" ~direction:Lower_better ~rel_tol:0.25 ~abs_tol:0.5;
    check "routing_hops.p99" ~direction:Lower_better ~rel_tol:0.25 ~abs_tol:1.;
    check "delivery.orphans" ~direction:Exact;
    check "spans.chord_lookup.p50_ms" ~direction:Lower_better ~rel_tol:0.3
      ~abs_tol:2.;
    check "spans.chord_lookup.p99_ms" ~direction:Lower_better ~rel_tol:0.3
      ~abs_tol:5.;
    check "spans.trigger_refresh.p99_ms" ~direction:Lower_better ~rel_tol:0.3
      ~abs_tol:5.;
    check "health.violated_scrapes" ~direction:Exact;
    check "health.degraded_scrapes" ~direction:Lower_better ~abs_tol:2.;
    (* Codec shape pins: frame sizes and the corpus decode-error count
       are deterministic, so any wire-format drift fails exactly and an
       intentional format change must re-baseline. *)
    check "codec.decode_errors" ~direction:Exact;
    check "codec.corpus_bytes" ~direction:Exact;
    check "codec.data_frame_bytes" ~direction:Exact;
    (* Engine shape pins: the loopback scenario is a pure function of
       its seeds and virtual schedule, so its event/effect totals (and
       that the two-node ring forms at all) are deterministic; only
       events_per_sec is wall-clock and stays unguarded. *)
    check "engine.loopback_events" ~direction:Exact;
    check "engine.loopback_effects" ~direction:Exact;
    check "engine.loopback_delivers" ~direction:Exact;
    check "engine.ring_formed" ~direction:Exact;
    (* Telemetry-plane pins: the scrape response the bench engine
       builds is a pure function of its seeds and virtual schedule, so
       its wire size, sample/event counts and round-trip decode errors
       (must stay 0) are exact; the ns/op costs are wall-clock and
       unguarded. *)
    check "scrape.wire_decode_errors" ~direction:Exact;
    check "scrape.response_bytes" ~direction:Exact;
    check "scrape.samples" ~direction:Exact;
    check "scrape.drained_events" ~direction:Exact;
    (* Substrate bakeoff pins: hop means may drift a little with seeds,
       state bytes are a deterministic function of the membership. *)
    check "substrate.chord_default.hops_mean" ~direction:Lower_better
      ~rel_tol:0.25 ~abs_tol:0.5;
    check "substrate.koorde8.hops_mean" ~direction:Lower_better ~rel_tol:0.25
      ~abs_tol:0.5;
    check "substrate.koorde2.hops_mean" ~direction:Lower_better ~rel_tol:0.25
      ~abs_tol:0.5;
    check "substrate.koorde8.state_bytes_per_node" ~direction:Exact;
    check "substrate.koorde2.state_bytes_per_node" ~direction:Exact;
    (* Trigger-table hot path: wall-clock, so only order-of-magnitude
       drift fails.  A linear-scan regression at bench scale would blow
       the p99 by 100x and the rates by 10x+, far past these bounds. *)
    check "trigger_table.inserts_per_sec" ~direction:Higher_better
      ~rel_tol:0.85;
    check "trigger_table.matches_per_sec" ~direction:Higher_better
      ~rel_tol:0.85;
    check "trigger_table.match_p99_ns" ~direction:Lower_better
      ~rel_tol:9. ~abs_tol:10_000.;
  ]

(* Koorde's headline claim, checked on every run regardless of baseline:
   both degrees hold less routing state than classic Chord's finger
   table.  (The hops-beat-chord half only holds at full scale, so it is
   pinned by the n = 10^4 test, not by the smoke-tolerant gate.) *)
let default_relations =
  [
    relation ~lesser:"substrate.koorde8.state_bytes_per_node"
      ~greater:"substrate.chord_default.state_bytes_per_node";
    relation ~lesser:"substrate.koorde2.state_bytes_per_node"
      ~greater:"substrate.chord_default.state_bytes_per_node";
  ]
