(* Tests for the bench regression gate: the Json parser it reads both
   files with, and the per-metric tolerance compare logic — including a
   synthetic regression that must fail the gate. *)

let feq = Alcotest.(check (float 1e-9))

(* --- Json parsing --- *)

let test_parse_scalars () =
  Alcotest.(check bool) "null" true (Json.of_string "null" = Json.Null);
  Alcotest.(check bool) "true" true (Json.of_string "true" = Json.Bool true);
  Alcotest.(check bool) "false" true (Json.of_string " false " = Json.Bool false);
  Alcotest.(check bool) "int" true (Json.of_string "-42" = Json.Int (-42));
  Alcotest.(check bool) "float" true (Json.of_string "2.5" = Json.Float 2.5);
  Alcotest.(check bool) "exponent is a float" true
    (Json.of_string "1e3" = Json.Float 1000.);
  Alcotest.(check bool) "string" true
    (Json.of_string "\"a b\"" = Json.String "a b")

let test_parse_structures () =
  match Json.of_string "{\"a\": [1, 2.0, {\"b\": null}], \"c\": \"\"}" with
  | Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.; Json.Obj [ ("b", Json.Null) ] ]); ("c", Json.String "") ] ->
      ()
  | _ -> Alcotest.fail "nested structure mis-parsed"

let test_parse_string_escapes () =
  Alcotest.(check bool) "standard escapes" true
    (Json.of_string "\"a\\\"b\\\\c\\nd\\te\"" = Json.String "a\"b\\c\nd\te");
  (* \u00e9 = é (2-byte UTF-8), surrogate pair \ud83d\ude00 = U+1F600 *)
  Alcotest.(check bool) "unicode escape" true
    (Json.of_string "\"\\u00e9\"" = Json.String "\xc3\xa9");
  Alcotest.(check bool) "surrogate pair combines" true
    (Json.of_string "\"\\ud83d\\ude00\"" = Json.String "\xf0\x9f\x98\x80")

let test_parse_roundtrip () =
  (* everything the bench emits must survive render -> parse *)
  let j =
    Json.Obj
      [
        ("schema", Json.String "i3-bench/2");
        ("mode", Json.String "smoke");
        ("neg", Json.Int (-17));
        ("ratio", Json.Float 0.9875);
        ( "nested",
          Json.Obj
            [
              ("p50", Json.Float 2.0);
              ("list", Json.List [ Json.Int 1; Json.Bool false; Json.Null ]);
            ] );
        ("escaped", Json.String "a\"b\\c\nd");
        ("empty_obj", Json.Obj []);
        ("empty_list", Json.List []);
      ]
  in
  Alcotest.(check bool) "roundtrip preserves the tree" true
    (Json.of_string (Json.to_string j) = j)

let test_parse_malformed () =
  let rejects s =
    Alcotest.(check bool)
      (Printf.sprintf "rejects %S" s)
      true
      (Json.of_string_opt s = None)
  in
  List.iter rejects
    [
      ""; "{"; "[1,"; "{\"a\":}"; "tru"; "01x"; "\"unterminated";
      "{\"a\":1} trailing"; "[1 2]"; "{\"a\" 1}"; "nan"; "'single'";
      "\"bad\\escape\"";
    ]

let test_json_accessors () =
  let j =
    Json.of_string
      "{\"delivery\": {\"ratio\": 0.98, \"sent\": 160}, \"mode\": \"smoke\"}"
  in
  (match Json.path j "delivery.ratio" with
  | Some v -> feq "path to float" 0.98 (Option.get (Json.to_float_opt v))
  | None -> Alcotest.fail "path miss");
  (match Json.path j "delivery.sent" with
  | Some v -> feq "int reads as float" 160. (Option.get (Json.to_float_opt v))
  | None -> Alcotest.fail "path miss");
  Alcotest.(check bool) "missing path" true (Json.path j "delivery.nope" = None);
  Alcotest.(check bool) "path through non-object" true
    (Json.path j "mode.deeper" = None);
  Alcotest.(check bool) "string is not a float" true
    (Option.get (Json.path j "mode") |> Json.to_float_opt = None)

let test_json_of_file () =
  let path = Filename.temp_file "test_gate" ".json" in
  Json.to_file ~path (Json.Obj [ ("x", Json.Float 1.5) ]);
  let j = Json.of_file ~path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true
    (j = Json.Obj [ ("x", Json.Float 1.5) ])

(* --- Gate compare --- *)

let bench ?(mode = "smoke") ?(ratio = 0.98) ?(p99 = 3.2) ?(orphans = 0)
    ?(violated = 0) () =
  Json.Obj
    [
      ("mode", Json.String mode);
      ( "delivery",
        Json.Obj
          [ ("ratio", Json.Float ratio); ("orphans", Json.Int orphans) ] );
      ("routing_hops", Json.Obj [ ("p99", Json.Float p99) ]);
      ("health", Json.Obj [ ("violated_scrapes", Json.Int violated) ]);
    ]

let checks =
  [
    Eval.Gate.check "delivery.ratio" ~direction:Eval.Gate.Higher_better
      ~rel_tol:0.05;
    Eval.Gate.check "routing_hops.p99" ~direction:Eval.Gate.Lower_better
      ~rel_tol:0.25;
    Eval.Gate.check "delivery.orphans" ~direction:Eval.Gate.Exact;
    Eval.Gate.check "health.violated_scrapes" ~direction:Eval.Gate.Exact;
  ]

let test_gate_identical_passes () =
  let b = bench () in
  let results = Eval.Gate.compare_json ~baseline:b ~current:b checks in
  Alcotest.(check bool) "identical files pass" true (Eval.Gate.passed results);
  Alcotest.(check int) "one result per check" (List.length checks)
    (List.length results)

let test_gate_within_tolerance_passes () =
  let results =
    Eval.Gate.compare_json ~baseline:(bench ())
      ~current:(bench ~ratio:0.95 ~p99:3.9 ())
      checks
  in
  Alcotest.(check bool) "drift inside tolerance passes" true
    (Eval.Gate.passed results)

let test_gate_synthetic_regression_fails () =
  (* delivery ratio collapses: 0.98 -> 0.5 is far past the 5% band *)
  let results =
    Eval.Gate.compare_json ~baseline:(bench ()) ~current:(bench ~ratio:0.5 ())
      checks
  in
  Alcotest.(check bool) "regression fails the gate" false
    (Eval.Gate.passed results);
  let bad =
    List.find
      (fun (r : Eval.Gate.result) -> not r.Eval.Gate.ok)
      results
  in
  Alcotest.(check string) "the failing check is the ratio" "delivery.ratio"
    bad.Eval.Gate.check.Eval.Gate.key;
  Alcotest.(check bool) "note names the regression" true
    (String.length bad.Eval.Gate.note > 10
    && String.sub bad.Eval.Gate.note 0 10 = "REGRESSION");
  (* direction matters: the same ratio moving UP must pass *)
  let up =
    Eval.Gate.compare_json ~baseline:(bench ~ratio:0.5 ())
      ~current:(bench ~ratio:0.98 ())
      checks
  in
  Alcotest.(check bool) "improvement passes a Higher_better check" true
    (Eval.Gate.passed up)

let test_gate_lower_better_and_exact () =
  let slower =
    Eval.Gate.compare_json ~baseline:(bench ()) ~current:(bench ~p99:10. ())
      checks
  in
  Alcotest.(check bool) "slower p99 fails" false (Eval.Gate.passed slower);
  let orphaned =
    Eval.Gate.compare_json ~baseline:(bench ())
      ~current:(bench ~orphans:2 ())
      checks
  in
  Alcotest.(check bool) "any orphan fails an Exact zero check" false
    (Eval.Gate.passed orphaned);
  let violated =
    Eval.Gate.compare_json ~baseline:(bench ())
      ~current:(bench ~violated:1 ())
      checks
  in
  Alcotest.(check bool) "a health violation fails" false
    (Eval.Gate.passed violated)

let test_gate_missing_keys () =
  let partial = Json.Obj [ ("mode", Json.String "smoke") ] in
  let results =
    Eval.Gate.compare_json ~baseline:(bench ()) ~current:partial checks
  in
  Alcotest.(check bool) "metric missing from current fails" false
    (Eval.Gate.passed results);
  (* a brand-new metric (absent from baseline) must NOT fail *)
  let grown =
    Eval.Gate.compare_json ~baseline:partial ~current:(bench ()) checks
  in
  Alcotest.(check bool) "metric missing from baseline passes" true
    (Eval.Gate.passed grown)

let test_gate_mode_mismatch () =
  Alcotest.(check bool) "same mode" true
    (Eval.Gate.mode_mismatch ~baseline:(bench ()) ~current:(bench ()) = None);
  match
    Eval.Gate.mode_mismatch ~baseline:(bench ~mode:"smoke" ())
      ~current:(bench ~mode:"reduced" ())
  with
  | Some ("smoke", "reduced") -> ()
  | _ -> Alcotest.fail "mode mismatch not reported"

let test_gate_default_checks_on_real_shape () =
  (* a miniature but shape-faithful BENCH_i3.json: every default check
     resolves, so none report "missing from current" *)
  let full =
    Json.of_string
      {|{"mode":"smoke",
         "delivery":{"ratio":0.98,"orphans":0},
         "routing_hops":{"p50":2.0,"p90":2.0,"p99":3.2},
         "spans":{"chord_lookup":{"p50_ms":0.0,"p99_ms":10.0},
                  "trigger_refresh":{"p99_ms":10.0}},
         "health":{"violated_scrapes":0,"degraded_scrapes":0},
         "codec":{"decode_errors":0,"corpus_bytes":2483,
                  "data_frame_bytes":154},
         "engine":{"loopback_events":811,"loopback_effects":411,
                   "loopback_delivers":1,"ring_formed":1},
         "scrape":{"wire_decode_errors":0,"response_bytes":6854,
                   "samples":28,"drained_events":256},
         "substrate":{
           "chord_default":{"hops_mean":5.5,"state_bytes_per_node":534.1},
           "koorde8":{"hops_mean":5.2,"state_bytes_per_node":427.5},
           "koorde2":{"hops_mean":12.2,"state_bytes_per_node":199.1}},
         "trigger_table":{"inserts_per_sec":3.3e6,"matches_per_sec":4.5e6,
                          "match_p99_ns":4900.0}}|}
  in
  let results =
    Eval.Gate.compare_json ~baseline:full ~current:full Eval.Gate.default_checks
  in
  Alcotest.(check bool) "self-compare passes" true (Eval.Gate.passed results);
  List.iter
    (fun (r : Eval.Gate.result) ->
      Alcotest.(check bool)
        (Printf.sprintf "check %s resolves" r.Eval.Gate.check.Eval.Gate.key)
        true
        (r.Eval.Gate.baseline <> None && r.Eval.Gate.current <> None))
    results

(* The relation API judges cross-key invariants within the current run
   alone (no baseline): lesser < greater passes, anything else —
   including a missing key — fails. *)
let test_gate_relations () =
  let current =
    Json.of_string {|{"substrate":{"a":{"state":100.0},"b":{"state":200.0}}}|}
  in
  let judge ~lesser ~greater =
    Eval.Gate.passed
      (Eval.Gate.check_relations ~current [ Eval.Gate.relation ~lesser ~greater ])
  in
  Alcotest.(check bool) "a < b holds" true
    (judge ~lesser:"substrate.a.state" ~greater:"substrate.b.state");
  Alcotest.(check bool) "b < a violated" false
    (judge ~lesser:"substrate.b.state" ~greater:"substrate.a.state");
  Alcotest.(check bool) "missing key fails" false
    (judge ~lesser:"substrate.c.state" ~greater:"substrate.b.state");
  Alcotest.(check bool) "equal keys rejected" true
    (match Eval.Gate.relation ~lesser:"x" ~greater:"x" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "gate"
    [
      ( "json-parse",
        [
          Alcotest.test_case "scalars" `Quick test_parse_scalars;
          Alcotest.test_case "structures" `Quick test_parse_structures;
          Alcotest.test_case "string escapes" `Quick test_parse_string_escapes;
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_parse_malformed;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "of_file" `Quick test_json_of_file;
        ] );
      ( "compare",
        [
          Alcotest.test_case "identical passes" `Quick
            test_gate_identical_passes;
          Alcotest.test_case "tolerated drift passes" `Quick
            test_gate_within_tolerance_passes;
          Alcotest.test_case "synthetic regression fails" `Quick
            test_gate_synthetic_regression_fails;
          Alcotest.test_case "lower-better and exact directions" `Quick
            test_gate_lower_better_and_exact;
          Alcotest.test_case "missing keys" `Quick test_gate_missing_keys;
          Alcotest.test_case "mode mismatch" `Quick test_gate_mode_mismatch;
          Alcotest.test_case "default checks resolve on real shape" `Quick
            test_gate_default_checks_on_real_shape;
          Alcotest.test_case "cross-key relations" `Quick test_gate_relations;
        ] );
    ]
