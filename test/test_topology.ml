(* Tests for lib/topology: graph, dijkstra, generators, model. *)

module G = Topology.Graph
module D = Topology.Dijkstra

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let feq = Alcotest.float 1e-9

(* --- Graph --- *)

let test_graph_basics () =
  let g = G.create ~n:4 in
  Alcotest.(check int) "n" 4 (G.n g);
  Alcotest.(check int) "edges" 0 (G.edge_count g);
  G.add_edge g 0 1 2.5;
  G.add_edge g 1 2 1.0;
  Alcotest.(check int) "edges" 2 (G.edge_count g);
  Alcotest.(check bool) "has 0-1" true (G.has_edge g 0 1);
  Alcotest.(check bool) "symmetric" true (G.has_edge g 1 0);
  Alcotest.(check bool) "no 0-2" false (G.has_edge g 0 2);
  Alcotest.(check int) "degree 1" 2 (G.degree g 1)

let test_graph_duplicate_ignored () =
  let g = G.create ~n:3 in
  G.add_edge g 0 1 1.;
  G.add_edge g 0 1 9.;
  Alcotest.(check int) "one edge" 1 (G.edge_count g);
  Alcotest.check feq "first weight wins" 1.
    (List.assoc 1 (G.neighbors g 0))

let test_graph_invalid () =
  let g = G.create ~n:3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> G.add_edge g 1 1 1.);
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Graph.add_edge: non-positive weight") (fun () ->
      G.add_edge g 0 1 0.);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.add_edge: node out of range") (fun () ->
      G.add_edge g 0 7 1.)

let test_graph_connectivity () =
  let g = G.create ~n:4 in
  G.add_edge g 0 1 1.;
  G.add_edge g 2 3 1.;
  Alcotest.(check bool) "disconnected" false (G.is_connected g);
  let added = G.connect_components g (Rng.create 5L) ~weight:10. in
  Alcotest.(check int) "one bridge" 1 added;
  Alcotest.(check bool) "connected" true (G.is_connected g)

let test_graph_degree_histogram () =
  let g = G.create ~n:3 in
  G.add_edge g 0 1 1.;
  G.add_edge g 0 2 1.;
  Alcotest.(check (list (pair int int))) "histogram" [ (1, 2); (2, 1) ]
    (G.degree_histogram g)

(* --- Dijkstra --- *)

let diamond () =
  (* 0 -1- 1 -1- 3 ; 0 -5- 2 -1- 3 : shortest 0->3 = 2 via 1 *)
  let g = G.create ~n:4 in
  G.add_edge g 0 1 1.;
  G.add_edge g 1 3 1.;
  G.add_edge g 0 2 5.;
  G.add_edge g 2 3 1.;
  g

let test_dijkstra_diamond () =
  let d = D.distances (diamond ()) 0 in
  Alcotest.check feq "d(0,0)" 0. d.(0);
  Alcotest.check feq "d(0,1)" 1. d.(1);
  Alcotest.check feq "d(0,3)" 2. d.(3);
  Alcotest.check feq "d(0,2)" 3. d.(2) (* via 1-3-2, cheaper than direct 5 *)

let test_dijkstra_unreachable () =
  let g = G.create ~n:3 in
  G.add_edge g 0 1 1.;
  let d = D.distances g 0 in
  Alcotest.(check bool) "unreachable = inf" true (d.(2) = infinity)

let test_oracle_symmetry_cached () =
  let g = diamond () in
  let o = D.oracle g in
  Alcotest.check feq "symmetric" (D.distance o 0 3) (D.distance o 3 0);
  Alcotest.(check int) "two sources cached" 2 (D.cached_sources o);
  ignore (D.distance o 0 2);
  Alcotest.(check int) "source reused" 2 (D.cached_sources o)

let random_graph seed n extra =
  let r = Rng.create (Int64.of_int seed) in
  let g = G.create ~n in
  for i = 1 to n - 1 do
    G.add_edge g i (Rng.int r i) (Rng.float_in r 1. 10.)
  done;
  for _ = 1 to extra do
    let a = Rng.int r n and b = Rng.int r n in
    if a <> b && not (G.has_edge g a b) then G.add_edge g a b (Rng.float_in r 1. 10.)
  done;
  g

let test_dijkstra_triangle_inequality =
  qtest "triangle inequality on shortest paths" QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let g = random_graph seed 40 30 in
      let o = D.oracle g in
      let r = Rng.create (Int64.of_int seed) in
      let a = Rng.int r 40 and b = Rng.int r 40 and c = Rng.int r 40 in
      D.distance o a c <= D.distance o a b +. D.distance o b c +. 1e-9)

let test_dijkstra_edge_upper_bound =
  qtest "d(u,v) <= direct edge weight" QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let g = random_graph seed 30 20 in
      let o = D.oracle g in
      let ok = ref true in
      for u = 0 to 29 do
        G.iter_neighbors g u (fun v w ->
            if D.distance o u v > w +. 1e-9 then ok := false)
      done;
      !ok)

(* --- PLRG generator --- *)

let test_plrg_connected_and_sized () =
  let g = Topology.Plrg.generate (Rng.create 7L) ~n:500 () in
  Alcotest.(check int) "n" 500 (G.n g);
  Alcotest.(check bool) "connected" true (G.is_connected g);
  Alcotest.(check bool) "enough edges" true (G.edge_count g >= 499)

let test_plrg_delays_in_range () =
  let g = Topology.Plrg.generate (Rng.create 7L) ~n:300 () in
  let ok = ref true in
  for u = 0 to 299 do
    G.iter_neighbors g u (fun _ w -> if w < 2.5 || w > 100. then ok := false)
  done;
  Alcotest.(check bool) "delays in [2.5,100]" true !ok

let test_plrg_heavy_tail () =
  (* Preferential attachment: max degree far above the mean. *)
  let g = Topology.Plrg.generate (Rng.create 11L) ~n:2000 () in
  let max_deg = ref 0 in
  let sum = ref 0 in
  for u = 0 to 1999 do
    max_deg := max !max_deg (G.degree g u);
    sum := !sum + G.degree g u
  done;
  let mean = float_of_int !sum /. 2000. in
  Alcotest.(check bool) "hub exists" true (float_of_int !max_deg > 5. *. mean)

let test_plrg_determinism () =
  let g1 = Topology.Plrg.generate (Rng.create 3L) ~n:200 () in
  let g2 = Topology.Plrg.generate (Rng.create 3L) ~n:200 () in
  let fingerprint g = G.degree_histogram g in
  Alcotest.(check (list (pair int int))) "same seed same graph"
    (fingerprint g1) (fingerprint g2)

let test_plrg_too_small () =
  Alcotest.check_raises "n too small" (Invalid_argument "Plrg.generate: n too small")
    (fun () -> ignore (Topology.Plrg.generate (Rng.create 1L) ~n:2 ()))

(* --- transit-stub generator --- *)

let test_ts_structure () =
  let ts = Topology.Transit_stub.generate (Rng.create 13L) ~n:1000 () in
  let g = ts.Topology.Transit_stub.graph in
  Alcotest.(check int) "n" 1000 (G.n g);
  Alcotest.(check bool) "connected" true (G.is_connected g);
  Alcotest.(check int) "transit core" 16 (Array.length ts.Topology.Transit_stub.transit);
  Alcotest.(check int) "stub nodes" (1000 - 16)
    (Array.length ts.Topology.Transit_stub.stub)

let test_ts_latency_classes () =
  let ts = Topology.Transit_stub.generate (Rng.create 13L) ~n:500 () in
  let g = ts.Topology.Transit_stub.graph in
  let classes = Hashtbl.create 4 in
  for u = 0 to G.n g - 1 do
    G.iter_neighbors g u (fun _ w -> Hashtbl.replace classes w ())
  done;
  Hashtbl.iter
    (fun w () ->
      Alcotest.(check bool)
        (Printf.sprintf "weight %.1f is 1, 10 or 100" w)
        true
        (List.exists (fun c -> Float.abs (w -. c) < 1e-9) [ 1.; 10.; 100. ]))
    classes

let test_ts_stub_to_stub_via_transit () =
  (* Stub nodes attached to different transit routers must cross at least
     two 10ms uplinks. *)
  let ts = Topology.Transit_stub.generate (Rng.create 17L) ~n:1000 () in
  let o = D.oracle ts.Topology.Transit_stub.graph in
  let stub = ts.Topology.Transit_stub.stub in
  let a = stub.(0) and b = stub.(Array.length stub - 1) in
  Alcotest.(check bool) "inter-domain distance >= 20ms" true
    (D.distance o a b >= 20.)

let test_ts_too_small () =
  Alcotest.check_raises "too small"
    (Invalid_argument "Transit_stub.generate: n too small for the transit core")
    (fun () -> ignore (Topology.Transit_stub.generate (Rng.create 1L) ~n:10 ()))

(* --- model --- *)

let test_model_plrg_eligible_all () =
  let m = Topology.Model.build (Rng.create 19L) Topology.Model.Plrg ~n:300 in
  Alcotest.(check int) "all nodes eligible" 300
    (Array.length (Topology.Model.eligible_sites m))

let test_model_ts_eligible_stub_only () =
  let m = Topology.Model.build (Rng.create 19L) Topology.Model.Transit_stub ~n:300 in
  Alcotest.(check bool) "only stub eligible" true
    (Array.length (Topology.Model.eligible_sites m) < 300)

let test_model_place_servers () =
  let m = Topology.Model.build (Rng.create 21L) Topology.Model.Transit_stub ~n:300 in
  let eligible = Topology.Model.eligible_sites m in
  let sites = Topology.Model.place_servers (Rng.create 4L) m ~count:64 in
  Alcotest.(check int) "count" 64 (Array.length sites);
  Array.iter
    (fun s ->
      Alcotest.(check bool) "site eligible" true (Array.exists (( = ) s) eligible))
    sites

let test_model_latency_consistent () =
  let m = Topology.Model.build (Rng.create 23L) Topology.Model.Plrg ~n:200 in
  Alcotest.check feq "self latency" 0. (Topology.Model.latency m 5 5);
  Alcotest.check feq "symmetric" (Topology.Model.latency m 3 90)
    (Topology.Model.latency m 90 3)

let test_kind_strings () =
  Alcotest.(check string) "plrg" "plrg" Topology.Model.(kind_to_string Plrg);
  Alcotest.(check bool) "roundtrip" true
    (Topology.Model.(kind_of_string (kind_to_string Transit_stub)) = Topology.Model.Transit_stub);
  Alcotest.check_raises "unknown"
    (Invalid_argument "Model.kind_of_string: unknown kind blah") (fun () ->
      ignore (Topology.Model.kind_of_string "blah"))

let () =
  Alcotest.run "topology"
    [
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "duplicate edges" `Quick test_graph_duplicate_ignored;
          Alcotest.test_case "invalid edges" `Quick test_graph_invalid;
          Alcotest.test_case "connectivity repair" `Quick test_graph_connectivity;
          Alcotest.test_case "degree histogram" `Quick test_graph_degree_histogram;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "diamond" `Quick test_dijkstra_diamond;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "oracle cache + symmetry" `Quick test_oracle_symmetry_cached;
          test_dijkstra_triangle_inequality;
          test_dijkstra_edge_upper_bound;
        ] );
      ( "plrg",
        [
          Alcotest.test_case "connected and sized" `Quick test_plrg_connected_and_sized;
          Alcotest.test_case "delays in range" `Quick test_plrg_delays_in_range;
          Alcotest.test_case "heavy tail degrees" `Quick test_plrg_heavy_tail;
          Alcotest.test_case "deterministic" `Quick test_plrg_determinism;
          Alcotest.test_case "rejects tiny n" `Quick test_plrg_too_small;
        ] );
      ( "transit-stub",
        [
          Alcotest.test_case "structure" `Quick test_ts_structure;
          Alcotest.test_case "latency classes" `Quick test_ts_latency_classes;
          Alcotest.test_case "inter-domain paths" `Quick test_ts_stub_to_stub_via_transit;
          Alcotest.test_case "rejects tiny n" `Quick test_ts_too_small;
        ] );
      ( "model",
        [
          Alcotest.test_case "plrg eligibility" `Quick test_model_plrg_eligible_all;
          Alcotest.test_case "ts eligibility" `Quick test_model_ts_eligible_stub_only;
          Alcotest.test_case "server placement" `Quick test_model_place_servers;
          Alcotest.test_case "latency sanity" `Quick test_model_latency_consistent;
          Alcotest.test_case "kind strings" `Quick test_kind_strings;
        ] );
    ]
