(* End-to-end benchmark of real i3d daemons over loopback UDP.

   One run of one workload sets up [Workload.fleets] two-daemon rings in
   turn through [Harness.Cluster], each preloaded with the workload's
   triggers and driven from this single-threaded process, pinned with the
   daemons to one CPU: a latency phase with one data packet outstanding,
   then a goodput phase with [Workload.window] outstanding, each fleet
   taking an equal share.  Every delivered byte is checked, and only what
   ran at full CPU speed is counted ([Speed]).  [--trace 1] adds the
   per-layer metrics: spans around the load generator's own calls,
   process CPU clocks and daemon counters across the goodput phases, and
   per-call timings of each layer ([Layers]).  The last line of stdout is
   one JSON object; README.md describes every metric.

   Usage (from the repository root, after building):
     i3bench.exe --i3d _build/default/bin/i3d.exe
       [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
       [--runs N] [--smoke --spec BENCHMARK.json] *)

let now_ns = Fleet.now_ns

type kind = E2e | Layer

(* Only [gated] metrics go into the final JSON line and BENCHMARK.json;
   the others are printed for reading: correctness counts that are 0 on
   every good run, ratios the workload fixes, and tails too noisy to
   gate (README.md). *)
type metric = {
  name : string;
  value : float;
  unit : string;
  kind : kind;
  gated : bool;
}

type result = {
  w : Workload.t;
  metrics : metric list;
  attempted : int;
  failed : int;
  correct : bool;
  notes : string list;
}

let m kind name unit value = { name; value; unit; kind; gated = true }
let info kind name unit value = { name; value; unit; kind; gated = false }

(* --- environment --- *)

let git_rev () =
  match
    Unix.open_process_in
      "GIT_CEILING_DIRECTORIES=\"$(cd .. && pwd)\" git rev-parse --short HEAD \
       2>/dev/null"
  with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
      let r = try input_line ic with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if r = "" then "unknown" else r

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Daemon logs and exit dumps live under the working directory, never in
   the system temp dir, and are removed after each fleet. *)
let run_root = ".bench_e2e"
let run_dir = Filename.concat run_root (Printf.sprintf "run-%d" (Unix.getpid ()))

(* --- one run of one workload --- *)

let teardown (c, lg, dir) =
  Loadgen.close lg;
  Harness.Cluster.stop ~grace_ms:2_000. c;
  remove_tree dir

let fleet_count = ref 0

let set_up ~config ~i3d run inp =
  incr fleet_count;
  let dir = Filename.concat run_dir (Printf.sprintf "fleet-%d" !fleet_count) in
  let t0 = now_ns () in
  let c = Fleet.spawn ~config ~i3d ~dir in
  let spawned = now_ns () - t0 in
  let lg = Loadgen.create run inp c in
  let t1 =
    try
      Fleet.await_predecessors c;
      let t1 = now_ns () in
      Loadgen.preload lg;
      Loadgen.probe_path lg;
      t1
    with e ->
      teardown (c, lg, dir);
      raise e
  in
  (float_of_int (spawned + now_ns () - t1) /. 1e9, (c, lg, dir))

(* CPU and daemon work over the goodput phases of a traced run. *)
type usage = {
  counters : Fleet.counters;
  loadgen_ns : float;
  daemons_ns : float;
  gateway_ns : float;  (** the daemon the sender's first identifier enters *)
  busy : float;  (** jiffies of the pinned CPU *)
  total : float;
  refreshes : float;
}

let usage ~cpu c (lg : Loadgen.t) =
  let busy, total =
    match cpu with Some k -> Fleet.cpu_jiffies k | None -> (0, 0)
  in
  let cpu_of (mb : Harness.Cluster.member) =
    match mb.pid with Some p -> float_of_int (Fleet.cpu_ns (string_of_int p)) | None -> 0.
  in
  let members = Harness.Cluster.members c in
  {
    counters = Fleet.scrape c;
    loadgen_ns = float_of_int (Fleet.cpu_ns "self");
    daemons_ns = List.fold_left (fun a mb -> a +. cpu_of mb) 0. members;
    gateway_ns =
      cpu_of (List.find (fun (mb : Harness.Cluster.member) -> mb.addr = lg.entry.(0)) members);
    busy = float_of_int busy;
    total = float_of_int total;
    refreshes = float_of_int lg.refreshes_sent;
  }

let map2 f a b =
  {
    counters = Fleet.map2 f a.counters b.counters;
    loadgen_ns = f a.loadgen_ns b.loadgen_ns;
    daemons_ns = f a.daemons_ns b.daemons_ns;
    gateway_ns = f a.gateway_ns b.gateway_ns;
    busy = f a.busy b.busy;
    total = f a.total b.total;
    refreshes = f a.refreshes b.refreshes;
  }

(* The per-layer metrics of a traced run (README.md, "Per-layer
   metrics"). *)
let layer_metrics (w : Workload.t) ~lat ~traced_lat ~(run : Loadgen.run) ~(u : usage)
    ~delivered ~timed =
  let d = float_of_int delivered in
  let per_pkt ns = ns /. 1e3 /. d in
  let k = u.counters in
  let l name = List.assoc name timed in
  let rx_per = k.frames /. d and tx_per = k.sends /. d in
  let layers_ns =
    (rx_per *. (l "udp.recv_ns" +. l "codec.decode_ns"))
    +. (tx_per *. (l "udp.send_ns" +. l "codec.encode_deliver_ns"))
    +. (l "engine.step_match_ns"
        +. (float_of_int (w.hops - 1) *. l "engine.step_relay_ns"))
       /. float_of_int w.fanout
    +. (u.refreshes /. d *. l "engine.step_refresh_ns")
  in
  let med = Samples.middle_mean in
  List.map (fun (name, v) -> m Layer name "ns" v) timed
  @ [
      m Layer "cpu.loadgen_us_per_pkt" "us" (per_pkt u.loadgen_ns);
      m Layer "cpu.daemons_us_per_pkt" "us" (per_pkt u.daemons_ns);
      m Layer "cpu.gateway_us_per_pkt" "us" (per_pkt u.gateway_ns);
      info Layer "cpu.busy_frac" "ratio" (if u.total > 0. then u.busy /. u.total else 0.);
      m Layer "daemon.step_us_mean" "us" (k.step_ms /. k.steps *. 1e3);
      m Layer "daemon.frames_per_step" "ratio" (k.frames /. k.steps);
      info Layer "daemon.tx_per_rx" "ratio" (k.sends /. k.frames);
      m Layer "client.encode_ns" "ns" (med run.encode_ns);
      m Layer "client.send_ns" "ns" (med run.send_ns);
      m Layer "client.decode_ns" "ns" (med run.decode_ns);
      m Layer "budget.daemon_unattributed_us" "us"
        (per_pkt u.daemons_ns -. (layers_ns /. 1e3));
      m Layer "trace.overhead_frac" "ratio" ((med traced_lat /. med lat) -. 1.);
    ]

(* One run of one workload.  Its phases are spread over several fleets,
   each set up (and timed) afresh and given an equal share of the latency
   packets and goodput seconds: a fleet's ports and memory layout move
   the 1400 B path by up to 10%, and pooling fleets averages that out. *)
let run_workload ~config ~i3d ~cpu ~seed ~seconds ~traced (w : Workload.t) =
  let inp = Loadgen.inputs ~seed w in
  let run = Loadgen.new_run () in
  let fleets = w.fleets in
  let packets = w.latency_packets / fleets and seconds = seconds /. float_of_int fleets in
  let setups = Samples.create () in
  let lat = ref [] and traced_lat = ref [] and gs = ref [] and used = ref None in
  let lgs = ref [] and finals = ref [] and timed = ref [] in
  (* A fleet that fails to come up is replaced: ports are picked by
     binding and closing a socket, so another socket can take one before
     its daemon binds it. *)
  let rec set_up_retrying attempt =
    try set_up ~config ~i3d run inp
    with Failure why when attempt < 3 ->
      Printf.printf "   %s: set-up attempt %d failed (%s); retrying\n%!" w.name attempt why;
      set_up_retrying (attempt + 1)
  in
  for k = 1 to fleets do
    let dt, ((c, lg, _) as fleet) = set_up_retrying 1 in
    Samples.add setups dt;
    Fun.protect
      ~finally:(fun () -> teardown fleet)
      (fun () ->
        Loadgen.start_refresh lg;
        lat := Loadgen.latency lg ~packets :: !lat;
        if traced then begin
          lg.tracing <- true;
          traced_lat := Loadgen.latency lg ~packets :: !traced_lat;
          lg.tracing <- false
        end;
        let before = if traced then Some (usage ~cpu c lg) else None in
        gs := Loadgen.goodput lg ~seconds :: !gs;
        Option.iter
          (fun b ->
            let u = map2 ( -. ) (usage ~cpu c lg) b in
            used := Some (match !used with None -> u | Some a -> map2 ( +. ) a u))
          before;
        Loadgen.stop_refresh lg;
        finals := Fleet.scrape c :: !finals;
        lgs := lg :: !lgs;
        if traced && k = fleets then timed := Layers.measure lg c)
  done;
  (* Every probe of the run sets the full-speed limit (README.md,
     "Noise"). *)
  let limit = Speed.limit run.speed in
  let pool ls = (Samples.concat (List.map fst ls), Samples.concat (List.map snd ls)) in
  let at_full_speed (lat, worst) =
    Speed.filter ~limit ~min_count:(max 1_000 (Samples.length lat / 10)) lat worst
  in
  let all, worst = pool !lat in
  let fast = at_full_speed (all, worst) in
  let delivered = List.fold_left (fun a (g : Loadgen.goodput) -> a + g.delivered) 0 !gs in
  let layers =
    match !used with
    | Some u ->
        layer_metrics w ~lat:fast ~traced_lat:(at_full_speed (pool !traced_lat)) ~run ~u
          ~delivered ~timed:!timed
    | None -> []
  in
  let pct = Samples.pct in
  let cat f = Samples.sum (Samples.concat (List.map f !gs)) in
  let total f = List.fold_left (fun a lg -> a + f lg) 0 !lgs in
  let attempted = total Loadgen.attempted and failed = total Loadgen.failures in
  let daemons f = List.fold_left (fun a c -> a +. f c) 0. !finals in
  let drops = daemons (fun c -> c.Fleet.drops) in
  let decode_errors = daemons (fun c -> c.Fleet.decode_errors) in
  {
    w;
    metrics =
      [
        m E2e "setup_s" "s" (pct setups 50.);
        m E2e "oneway_p50_us" "us" (pct fast 50.);
        m E2e "oneway_p90_us" "us" (pct fast 90.);
        info E2e "oneway_p99_us" "us" (pct fast 99.);
        m E2e "goodput_pps" "1/s" (Loadgen.goodput_rate !gs ~limit);
        info E2e "fail_frac" "ratio" (float_of_int failed /. float_of_int (max 1 attempted));
        info E2e "refresh_ack_p50_us" "us" (pct run.ref_ack_us 50.);
        info E2e "refresh_ack_p99_us" "us" (pct run.ref_ack_us 99.);
        info Layer "loadgen.late_p99_us" "us" (pct run.ref_late_us 99.);
        info Layer "daemon.drops" "count" drops;
        info Layer "daemon.decode_errors" "count" decode_errors;
      ]
      @ layers;
    attempted;
    failed;
    correct = failed = 0 && decode_errors = 0. && drops = 0.;
    notes =
      [
        Printf.sprintf "%d fleets; set-up median %.4g s (%.4g..%.4g)" fleets
          (pct setups 50.) (pct setups 0.) (pct setups 100.);
        Printf.sprintf
          "latency: %d packets, 1 outstanding, %d at full CPU speed; all packets: \
           p50 %.4g us, p99 %.4g us"
          (Samples.length all)
          (Samples.length (Speed.at_full_speed ~limit all worst))
          (pct all 50.) (pct all 99.);
        Printf.sprintf "goodput: %g s, %d outstanding, %d Deliver frames; all turns: %.6g /s"
          (seconds *. float_of_int fleets) Workload.window delivered
          (cat (fun g -> g.turn_d) /. cat (fun g -> g.turn_ns) *. 1e9);
        Printf.sprintf "refreshes: %d at %g Insert/s, %d acked"
          (total (fun lg -> lg.refreshes_sent))
          (Workload.refresh_per_s w) (Samples.length run.ref_ack_us);
        Printf.sprintf "failures: %d timeouts, %d mismatches, %d refreshes"
          (total (fun lg -> lg.timeouts))
          (total (fun lg -> lg.mismatches))
          (total (fun lg -> lg.refresh_failed));
      ];
  }

(* --- output --- *)

let print_result r =
  Printf.printf "== %s: %s\n" r.w.name r.w.why;
  List.iter (fun n -> Printf.printf "   %s\n" n) r.notes;
  let section title kind =
    let ms = List.filter (fun x -> x.kind = kind) r.metrics in
    if ms <> [] then begin
      Printf.printf "   %s\n" title;
      List.iter
        (fun x ->
          Printf.printf "     %-34s %14.6g %s%s\n" x.name x.value x.unit
            (if x.gated then "" else "  (not gated)"))
        ms
    end
  in
  section "end to end" E2e;
  section "per layer" Layer;
  Printf.printf "   outputs %s: %d attempted, %d failed\n%!"
    (if r.correct then "correct" else "INCORRECT")
    r.attempted r.failed

let json_line ~traced ~prefix results =
  let want = if traced then Layer else E2e in
  let metrics =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun x ->
            if x.kind <> want || not x.gated then None
            else
              Some
                ( (if prefix then r.w.name ^ "/" ^ x.name else x.name),
                  Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit) ] ))
          r.metrics)
      results
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (List.for_all (fun r -> r.correct) results));
         ("attempted", Json.Int (List.fold_left (fun a r -> a + r.attempted) 0 results));
         ("failed", Json.Int (List.fold_left (fun a r -> a + r.failed) 0 results));
         ("metrics", Json.Obj metrics);
       ])

(* [--runs N]: each metric's spread across whole runs, as the medians and
   quartiles BENCHMARK.json's bounds are set from. *)
let summarize runs =
  let r0 = List.hd runs in
  Printf.printf "== %s over %d runs: median [q1 q3] (min..max)\n" r0.w.name
    (List.length runs);
  List.map
    (fun x ->
      let vs =
        Array.of_list
          (List.map (fun r -> (List.find (fun y -> y.name = x.name) r.metrics).value) runs)
      in
      let q1, med, q3 = Samples.quartiles vs in
      Printf.printf "     %-34s %12.6g [%.6g %.6g] (%.6g..%.6g) spread %.3f\n" x.name med
        q1 q3
        (Array.fold_left Float.min infinity vs)
        (Array.fold_left Float.max neg_infinity vs)
        (if med <> 0. then (q3 -. q1) /. Float.abs med else 0.);
      { x with value = med })
    r0.metrics
  |> fun metrics ->
  {
    r0 with
    metrics;
    attempted = List.fold_left (fun a r -> a + r.attempted) 0 runs;
    failed = List.fold_left (fun a r -> a + r.failed) 0 runs;
    correct = List.for_all (fun r -> r.correct) runs;
  }

(* --- smoke: every workload and metric at tiny scale --- *)

(* The metric names BENCHMARK.json lists under [key]. *)
let spec_names path key =
  match Json.member key (Json.of_file ~path) with
  | Some (Json.List l) ->
      List.filter_map
        (fun x -> match Json.member "name" x with Some (Json.String s) -> Some s | _ -> None)
        l
  | _ -> []

(* Each result's gated metrics of [kind] against the spec's [key] list:
   "MISSING" and "EXTRA" lines, one per name. *)
let spec_mismatches path results =
  List.concat_map
    (fun r ->
      List.concat_map
        (fun (kind, key) ->
          let want = spec_names path key in
          let have =
            List.filter_map
              (fun x -> if x.kind = kind && x.gated then Some x.name else None)
              r.metrics
          in
          List.filter_map
            (fun n -> if List.mem n have then None else Some ("MISSING " ^ r.w.name ^ "/" ^ n))
            want
          @ List.filter_map
              (fun n -> if List.mem n want then None else Some ("EXTRA " ^ r.w.name ^ "/" ^ n))
              have)
        [ (E2e, "end_to_end"); (Layer, "per_layer") ])
    results

(* --- main --- *)

let () =
  let i3d = ref "_build/default/bin/i3d.exe" in
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and runs = ref 1 and smoke = ref false and spec = ref "" in
  Arg.parse
    [
      ("--i3d", Arg.Set_string i3d, "PATH the daemon binary");
      ("--workload", Arg.Set_string workload, "NAME run one workload (default: all)");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S goodput phase length (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 1: per-layer metrics instead");
      ("--traced", Arg.Unit (fun () -> trace := 1), " same as --trace 1");
      ("--runs", Arg.Set_int runs, "N repeat whole runs, print spreads");
      ("--smoke", Arg.Set smoke, " tiny scale, every workload traced");
      ("--spec", Arg.Set_string spec, "PATH check the metric names against BENCHMARK.json");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "i3bench.exe --i3d PATH [--workload NAME] [--seed N] [--seconds S] [--trace \
     0|1] [--runs N] [--smoke --spec BENCHMARK.json]";
  let skip reason =
    Printf.printf "SKIP e2e benchmark: %s\n%!" reason;
    exit (if !smoke then 0 else 3)
  in
  let workloads =
    if !workload = "" then Workload.all
    else
      match Workload.find !workload with
      | Some w -> [ w ]
      | None ->
          prerr_endline ("unknown workload " ^ !workload);
          exit 2
  in
  let workloads = if !smoke then List.map Workload.smoke workloads else workloads in
  let traced = !trace = 1 || !smoke and seconds = if !smoke then 0.3 else !seconds in
  let config = if !smoke then Fleet.smoke_config else Fleet.config in
  (match
     let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
     Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
     Unix.close s
   with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) -> skip ("no loopback UDP: " ^ Unix.error_message e));
  if not (Sys.file_exists !i3d) then begin
    prerr_endline ("i3d binary not found: " ^ !i3d);
    exit 2
  end;
  (* Fork/exec: the daemon run with no arguments prints its usage and
     exits. *)
  (match
     let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
     let pid = Unix.create_process !i3d [| !i3d |] Unix.stdin null null in
     Unix.close null;
     ignore (Unix.waitpid [] pid)
   with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
      skip ("cannot fork/exec the daemon: " ^ Unix.error_message e));
  let nproc = List.length (Fleet.allowed_cpus ()) in
  let cpu =
    match Fleet.pin () with
    | Fleet.Pinned k -> Some k
    | Fleet.Unpinned why ->
        Printf.printf "WARNING: UNPINNED (%s); the numbers will not repeat\n" why;
        None
  in
  Printf.printf
    "# i3d e2e benchmark  rev %s  seed %d  cpu %s  nproc %d  transport loopback \
     UDP 127.0.0.1\n\
     # fleet: 2 x i3d %s\n\
     %!"
    (git_rev ()) !seed
    (match cpu with Some k -> string_of_int k | None -> "unpinned")
    nproc (Fleet.daemon_flags config);
  (* ^C and SIGTERM unwind, so the daemons are stopped and reaped. *)
  Sys.catch_break true;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> raise Sys.Break));
  List.iter
    (fun d -> try Sys.mkdir d 0o700 with Sys_error _ -> ())
    [ run_root; run_dir ];
  let results =
    Fun.protect
      ~finally:(fun () ->
        remove_tree run_dir;
        try Sys.rmdir run_root with Sys_error _ -> ())
      (fun () ->
        List.map
          (fun w ->
            let one () =
              let r = run_workload ~config ~i3d:!i3d ~cpu ~seed:!seed ~seconds ~traced w in
              print_result r;
              r
            in
            if !runs <= 1 then one ()
            else summarize (List.init !runs (fun _ -> one ())))
          workloads)
  in
  let mismatches = if !spec <> "" then spec_mismatches !spec results else [] in
  List.iter print_endline mismatches;
  print_endline (json_line ~traced:(!trace = 1) ~prefix:(List.length results > 1) results);
  if mismatches <> [] || not (List.for_all (fun r -> r.correct) results) then exit 1
