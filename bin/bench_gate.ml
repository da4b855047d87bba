(* bench_gate: CI perf-regression gate.

   Compares a fresh bench output (BENCH_i3.json) against the checked-in
   baseline (bench/baseline.json) using Eval.Gate's per-metric
   tolerances, printing a readable diff and exiting non-zero on any
   regression.  Only virtual-time-deterministic metrics are gated; see
   Eval.Gate.default_checks.

   To re-baseline after an intentional change:
     I3_BENCH_SMOKE=1 I3_BENCH_OUT=bench/baseline.json dune exec bench/main.exe *)

let usage = "bench_gate [--baseline PATH] [--current PATH] [--allow-mode-mismatch]"

let () =
  let baseline = ref "bench/baseline.json" in
  let current = ref "BENCH_i3.json" in
  let allow_mode = ref false in
  Arg.parse
    [
      ("--baseline", Arg.Set_string baseline, "baseline JSON (default bench/baseline.json)");
      ("--current", Arg.Set_string current, "fresh bench JSON (default BENCH_i3.json)");
      ( "--allow-mode-mismatch",
        Arg.Set allow_mode,
        "compare across smoke/reduced modes anyway" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    usage;
  let load what path =
    try Json.of_file ~path
    with
    | Sys_error m ->
        Printf.eprintf "bench_gate: cannot read %s file: %s\n" what m;
        exit 2
    | Json.Parse_error m ->
        Printf.eprintf "bench_gate: %s file %s is not valid JSON: %s\n" what
          path m;
        exit 2
  in
  let b = load "baseline" !baseline in
  let c = load "current" !current in
  Printf.printf "bench gate: %s vs baseline %s\n" !current !baseline;
  let mode_ok =
    match Eval.Gate.mode_mismatch ~baseline:b ~current:c with
    | None -> true
    | Some (bm, cm) ->
        Printf.printf
          "  %s bench mode mismatch: baseline is %S, current is %S%s\n"
          (if !allow_mode then "warn" else "FAIL")
          bm cm
          (if !allow_mode then " (overridden)"
           else " — rerun with matching I3_BENCH_SMOKE");
        !allow_mode
  in
  let results =
    Eval.Gate.compare_json ~baseline:b ~current:c Eval.Gate.default_checks
    @ Eval.Gate.check_relations ~current:c Eval.Gate.default_relations
  in
  Eval.Gate.render results;
  if mode_ok && Eval.Gate.passed results then exit 0
  else begin
    print_endline
      "  (intentional change? re-baseline: I3_BENCH_SMOKE=1 \
       I3_BENCH_OUT=bench/baseline.json dune exec bench/main.exe)";
    exit 1
  end
