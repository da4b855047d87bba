(* Tests for lib/eval: experiment harnesses at miniature scale, so the
   qualitative claims the benches reproduce are asserted in CI too. *)

let test_log2i () =
  Alcotest.(check int) "log2 1" 0 (Eval.Workload.log2i 1);
  Alcotest.(check int) "log2 2" 1 (Eval.Workload.log2i 2);
  Alcotest.(check int) "log2 1023" 9 (Eval.Workload.log2i 1023);
  Alcotest.(check int) "log2 1024" 10 (Eval.Workload.log2i 1024);
  Alcotest.check_raises "log2 0" (Invalid_argument "Workload.log2i") (fun () ->
      ignore (Eval.Workload.log2i 0))

let test_host_pair_distinct () =
  let rng = Rng.create 1L in
  let m = Topology.Model.build rng Topology.Model.Plrg ~n:100 in
  for _ = 1 to 100 do
    let a, b = Eval.Workload.host_pair rng m in
    Alcotest.(check bool) "distinct" true (a <> b)
  done

let test_payload_and_ids () =
  let rng = Rng.create 2L in
  Alcotest.(check int) "payload size" 100 (String.length (Eval.Workload.payload rng 100));
  Alcotest.(check int) "ids count" 7 (Array.length (Eval.Workload.ids rng 7))

(* --- Fig. 8 harness --- *)

let small_fig8 kind =
  {
    (Eval.Latency_stretch.default_params kind) with
    Eval.Latency_stretch.topo_nodes = 400;
    n_servers = 256;
    measurements = 120;
    sample_counts = [ 1; 4; 16 ];
    seed = 7;
  }

let test_fig8_shape () =
  let pts = Eval.Latency_stretch.run (small_fig8 Topology.Model.Plrg) in
  Alcotest.(check int) "one point per sample count" 3 (List.length pts);
  (match pts with
  | [ p1; p4; p16 ] ->
      Alcotest.(check int) "ordered" 1 p1.Eval.Latency_stretch.samples;
      Alcotest.(check bool) "stretch >= 1 everywhere" true
        (List.for_all (fun p -> p.Eval.Latency_stretch.p50 >= 1.) pts);
      (* the paper's claim: sampling lowers the 90th-percentile stretch *)
      Alcotest.(check bool)
        (Printf.sprintf "p90 improves: %.2f -> %.2f -> %.2f"
           p1.Eval.Latency_stretch.p90 p4.Eval.Latency_stretch.p90
           p16.Eval.Latency_stretch.p90)
        true
        (p16.Eval.Latency_stretch.p90 < p1.Eval.Latency_stretch.p90)
  | _ -> Alcotest.fail "unexpected points")

let test_fig8_deterministic () =
  let run () = Eval.Latency_stretch.run (small_fig8 Topology.Model.Transit_stub) in
  let a = run () and b = run () in
  List.iter2
    (fun x y ->
      Alcotest.(check (float 1e-12)) "same p90" x.Eval.Latency_stretch.p90
        y.Eval.Latency_stretch.p90)
    a b

(* --- Fig. 9 harness --- *)

let test_fig9_policies_for () =
  match Eval.Proximity_routing.policies_for ~replicas:10 with
  | Koorde.Substrate.
      [
        Chord Chord.Routing.Default;
        Chord (Chord.Routing.Closest_finger_replica { replicas = 10 });
        Chord (Chord.Routing.Closest_finger_set { gamma = 11 });
        Chord (Chord.Routing.Prefix_pns { digit_bits = 4; scan = 16 });
      ] ->
      ()
  | _ -> Alcotest.fail "unexpected policy set"

let test_fig9_shape () =
  let p =
    {
      (Eval.Proximity_routing.default_params Topology.Model.Transit_stub) with
      Eval.Proximity_routing.topo_nodes = 400;
      server_counts = [ 256 ];
      queries = 150;
      seed = 3;
    }
  in
  let pts =
    Eval.Proximity_routing.run
      ~specs:(Eval.Proximity_routing.policies_for ~replicas:10)
      p
  in
  Alcotest.(check int) "four policies" 4 (List.length pts);
  let p90_of policy =
    (List.find
       (fun x -> x.Eval.Proximity_routing.spec = Koorde.Substrate.Chord policy)
       pts)
      .Eval.Proximity_routing.p90
  in
  let d = p90_of Chord.Routing.Default in
  let r = p90_of (Chord.Routing.Closest_finger_replica { replicas = 10 }) in
  let f = p90_of (Chord.Routing.Closest_finger_set { gamma = 11 }) in
  Alcotest.(check bool)
    (Printf.sprintf "heuristics cut p90 stretch (d=%.1f r=%.1f f=%.1f)" d r f)
    true
    (r < d && f < d)

(* Fig. 9 and the bakeoff draw the same ring, placement and queries from
   the same seed, so at one server count their stretch columns agree
   spec for spec: the two experiments are one paired race. *)
let test_fig9_bakeoff_paired () =
  let kind = Topology.Model.Transit_stub in
  let fig9 =
    Eval.Proximity_routing.run ~specs:Koorde.Substrate.bakeoff_specs
      {
        (Eval.Proximity_routing.default_params kind) with
        Eval.Proximity_routing.topo_nodes = 400;
        server_counts = [ 256 ];
        queries = 150;
        seed = 3;
      }
  in
  let bake =
    Eval.Bakeoff.run
      {
        (Eval.Bakeoff.default_params kind) with
        Eval.Bakeoff.topo_nodes = 400;
        n_servers = 256;
        queries = 150;
        seed = 3;
      }
  in
  List.iter2
    (fun f b ->
      let name = Koorde.Substrate.label b.Eval.Bakeoff.spec in
      Alcotest.(check string) "same spec" name
        (Koorde.Substrate.label f.Eval.Proximity_routing.spec);
      Alcotest.(check (float 0.)) (name ^ " p50") b.Eval.Bakeoff.p50_stretch
        f.Eval.Proximity_routing.p50;
      Alcotest.(check (float 0.)) (name ^ " p90") b.Eval.Bakeoff.p90_stretch
        f.Eval.Proximity_routing.p90)
    fig9 bake

(* --- microbench harnesses --- *)

let test_microbench_forward_runs () =
  let env = Eval.Microbench.forward_env ~payload:64 ~seed:5 () in
  Eval.Microbench.batch env 100 (* must not raise or leak events *)

let test_microbench_insert_runs () =
  let env = Eval.Microbench.insert_env ~seed:5 () in
  Eval.Microbench.batch env 500

let test_microbench_route_runs () =
  let env = Eval.Microbench.route_env ~n_nodes:16 ~seed:5 () in
  Eval.Microbench.batch env 500

let test_microbench_throughput () =
  let t = Eval.Microbench.throughput ~payload:256 ~seed:5 () in
  Alcotest.(check bool) "positive pps" true (t.Eval.Microbench.packets_per_sec > 0.);
  Alcotest.(check bool) "mbps consistent" true
    (Float.abs
       (t.Eval.Microbench.user_mbps
       -. (t.Eval.Microbench.packets_per_sec *. 256. *. 8. /. 1e6))
    < 1e-6)

let test_microbench_timing () =
  let env = Eval.Microbench.insert_env ~seed:5 () in
  let mean, stdev = Eval.Microbench.time_per_iter_ns env in
  Alcotest.(check bool) "positive mean" true (mean > 0.);
  Alcotest.(check bool) "stdev finite" true (Float.is_finite stdev)

(* --- ablations --- *)

let test_ablation_sender_cache () =
  let c = Eval.Ablations.sender_cache ~seed:2 () in
  Alcotest.(check bool)
    (Printf.sprintf "cache reduces hops (%.2f < %.2f)"
       c.Eval.Ablations.hops_with_cache c.Eval.Ablations.hops_without_cache)
    true
    (c.Eval.Ablations.hops_with_cache < c.Eval.Ablations.hops_without_cache);
  (* "most packets are forwarded through only one server" *)
  Alcotest.(check bool) "cached path stays near one server" true
    (c.Eval.Ablations.hops_with_cache < 2.)

let test_ablation_replication () =
  let r = Eval.Ablations.replication ~seed:3 () in
  Alcotest.(check int) "mirroring closes the window" r.Eval.Ablations.attempts
    r.Eval.Ablations.delivered_with;
  Alcotest.(check bool) "without mirroring packets are lost" true
    (r.Eval.Ablations.delivered_without < r.Eval.Ablations.attempts)

let test_ablation_challenges () =
  let ch = Eval.Ablations.challenges ~seed:4 () in
  (* the paper: "trigger challenges add an extra round trip of delay" *)
  Alcotest.(check (float 1e-6)) "exactly one extra RTT"
    (ch.Eval.Ablations.ack_ms_without *. 2.)
    ch.Eval.Ablations.ack_ms_with

let test_ablation_constraints () =
  let k = Eval.Ablations.constraints ~seed:5 () in
  Alcotest.(check bool) "checking costs something but both finite" true
    (k.Eval.Ablations.ns_with_check > 0. && k.Eval.Ablations.ns_without_check > 0.)

(* --- report --- *)

let test_scalability_rows () =
  (* the paper's numbers: 10^9 hosts x 10 triggers, 10^5 servers, 30 s *)
  let rows =
    Eval.Report.scalability_rows ~hosts:1e9 ~triggers_per_host:10.
      ~servers:1e5 ~refresh_s:30.
  in
  Alcotest.(check (option string)) "triggers per server" (Some "1e+05")
    (List.assoc_opt "triggers per server" rows);
  Alcotest.(check (option string)) "refreshes per second" (Some "3.33e+03")
    (List.assoc_opt "refreshes/s per server" rows)

let test_insertion_capacity () =
  (* 12.5 us per insert and 30 s refresh -> 2.4M triggers, as in Sec. V-D *)
  Alcotest.(check (float 1.)) "capacity" 2_400_000.
    (Eval.Report.insertion_capacity ~insert_ns:12_500. ~refresh_s:30.)

let test_csv_roundtrip () =
  let path = Filename.temp_file "i3eval" ".csv" in
  Eval.Report.csv ~path ~header:[ "a"; "b" ] [ [ "1"; "2" ]; [ "3"; "4" ] ];
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  Alcotest.(check (list string)) "csv content" [ "a,b"; "1,2"; "3,4" ]
    (List.rev !lines)

let () =
  Alcotest.run "eval"
    [
      ( "workload",
        [
          Alcotest.test_case "log2i" `Quick test_log2i;
          Alcotest.test_case "host pairs distinct" `Quick test_host_pair_distinct;
          Alcotest.test_case "payload and ids" `Quick test_payload_and_ids;
        ] );
      ( "fig8",
        [
          Alcotest.test_case "sampling lowers stretch" `Slow test_fig8_shape;
          Alcotest.test_case "deterministic" `Slow test_fig8_deterministic;
        ] );
      ( "fig9",
        [
          Alcotest.test_case "policy set" `Quick test_fig9_policies_for;
          Alcotest.test_case "heuristics cut stretch" `Slow test_fig9_shape;
          Alcotest.test_case "fig9 and bakeoff race the same pairs" `Quick
            test_fig9_bakeoff_paired;
        ] );
      ( "microbench",
        [
          Alcotest.test_case "forward env" `Quick test_microbench_forward_runs;
          Alcotest.test_case "insert env" `Quick test_microbench_insert_runs;
          Alcotest.test_case "route env" `Quick test_microbench_route_runs;
          Alcotest.test_case "throughput" `Quick test_microbench_throughput;
          Alcotest.test_case "timing" `Quick test_microbench_timing;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "sender cache" `Quick test_ablation_sender_cache;
          Alcotest.test_case "replication" `Quick test_ablation_replication;
          Alcotest.test_case "challenges" `Quick test_ablation_challenges;
          Alcotest.test_case "constraints" `Slow test_ablation_constraints;
        ] );
      ( "report",
        [
          Alcotest.test_case "scalability rows" `Quick test_scalability_rows;
          Alcotest.test_case "insertion capacity" `Quick test_insertion_capacity;
          Alcotest.test_case "csv" `Quick test_csv_roundtrip;
        ] );
    ]
