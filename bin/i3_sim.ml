(* i3_sim: the one driver for the paper's figures and tables.

   Subcommands:
     fig8       latency stretch vs. trigger samples (paper Fig. 8)
     fig9       proximity routing stretch vs. system size (paper Fig. 9)
     bakeoff    substrate race: chord variants vs koorde, hops/stretch/state
     micro      trigger insertion / forwarding / routing / throughput
                (Sec. V-D, Figs. 10-12), and the constraint-check ablation
                (Sec. IV-J1), all timed on the wall clock
     ablations  sender cache, replication and challenges on vs. off
                (Secs. IV-C, IV-E, IV-J3)
     scale      the Sec. VII scalability arithmetic
     health     the health monitor over a chaos scenario

   Flag defaults are the paper's scale, read from each experiment's
   [default_params].  Every simulation is deterministic under --seed and
   can dump CSV for plotting; only [micro]'s wall-clock timings vary
   from run to run. *)

open Cmdliner

let substrate_conv =
  let parse s =
    match Koorde.Substrate.of_string s with
    | Some spec -> Ok spec
    | None ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown substrate %S (try chord, chord-replica, \
                 chord-finger-set, chord-pns, koorde, koorde2..koorde256)"
                s))
  in
  Arg.conv
    (parse, fun ppf s -> Format.pp_print_string ppf (Koorde.Substrate.label s))

let substrate_arg =
  Arg.(
    value
    & opt (some substrate_conv) None
    & info [ "substrate" ] ~docv:"SUB"
        ~doc:
          "Route over a specific substrate (chord, chord-replica, \
           chord-finger-set, chord-pns, koorde, koorde2..koorde256) instead \
           of the figure's default policy set.")

let kind_conv =
  let parse s =
    try Ok (Topology.Model.kind_of_string s)
    with Invalid_argument m -> Error (`Msg m)
  in
  let print ppf k =
    Format.pp_print_string ppf (Topology.Model.kind_to_string k)
  in
  Arg.conv (parse, print)

let kind_arg =
  Arg.(
    value
    & opt (some kind_conv) None
    & info [ "t"; "topology" ] ~docv:"KIND"
        ~doc:"Topology kind: plrg or transit-stub. Default: both in sequence.")

let nodes_arg default =
  Arg.(value & opt int default & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Topology size.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"PATH" ~doc:"Also write the series as CSV.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"PATH" ~doc:"Also write the results as JSON.")

let progress msg = Printf.eprintf "# %s\n%!" msg

(* Run [sink path] when a path was given, and say so. *)
let write sink =
  Option.iter (fun path ->
      sink path;
      progress (Printf.sprintf "wrote %s" path))

let table title rows =
  print_endline title;
  Obs.Sink.aligned_table rows;
  print_newline ()

let kinds = function
  | Some k -> [ k ]
  | None -> [ Topology.Model.Plrg; Topology.Model.Transit_stub ]

(* --- fig8 --- *)

let fig8_default = Eval.Latency_stretch.default_params Topology.Model.Plrg

let run_fig8 kind nodes servers measurements samples seed csv json substrate =
  let header = "topology" :: Eval.Latency_stretch.header in
  Option.iter
    (fun s ->
      progress
        (Printf.sprintf "first-packet path routed over %s"
           (Koorde.Substrate.label s)))
    substrate;
  let rows =
    List.concat_map
      (fun kind ->
        let p =
          {
            Eval.Latency_stretch.kind;
            topo_nodes = nodes;
            n_servers = servers;
            measurements;
            sample_counts = samples;
            seed;
          }
        in
        let pts = Eval.Latency_stretch.run ~progress ?substrate p in
        let rows =
          List.map
            (fun row -> Topology.Model.kind_to_string kind :: row)
            (Eval.Latency_stretch.rows pts)
        in
        table
          (Printf.sprintf "fig8 %s" (Topology.Model.kind_to_string kind))
          (header :: rows);
        rows)
      kind
  in
  write (fun path -> Eval.Report.csv ~path ~header rows) csv;
  write (fun path -> Eval.Report.json ~path ~header rows) json

let fig8_cmd =
  let servers =
    Arg.(
      value
      & opt int fig8_default.n_servers
      & info [ "servers" ] ~docv:"N" ~doc:"Number of i3 servers.")
  in
  let measurements =
    Arg.(
      value
      & opt int fig8_default.measurements
      & info [ "measurements" ] ~docv:"N"
          ~doc:"Sender/receiver pairs per point.")
  in
  let samples =
    Arg.(
      value
      & opt (list int) fig8_default.sample_counts
      & info [ "samples" ] ~docv:"LIST" ~doc:"Sample counts to evaluate.")
  in
  let doc = "Latency stretch vs. number of trigger samples (Fig. 8)." in
  Cmd.v (Cmd.info "fig8" ~doc)
    Term.(
      const (fun kind -> run_fig8 (kinds kind))
      $ kind_arg $ nodes_arg fig8_default.topo_nodes $ servers $ measurements
      $ samples $ seed_arg $ csv_arg $ json_arg $ substrate_arg)

(* --- fig9 --- *)

let fig9_default = Eval.Proximity_routing.default_params Topology.Model.Plrg

let run_fig9 kind nodes server_counts queries replicas seed csv substrates =
  let specs =
    match substrates with
    | [] -> Eval.Proximity_routing.policies_for ~replicas
    | l -> l
  in
  let header = [ "topology"; "N"; "policy"; "p90"; "p50"; "hops" ] in
  let rows =
    List.concat_map
      (fun kind ->
        let p =
          {
            Eval.Proximity_routing.kind;
            topo_nodes = nodes;
            server_counts;
            queries;
            seed;
          }
        in
        let rows =
          List.map
            (fun pt ->
              [
                Topology.Model.kind_to_string kind;
                string_of_int pt.Eval.Proximity_routing.n_servers;
                Koorde.Substrate.label pt.Eval.Proximity_routing.spec;
                Printf.sprintf "%.4f" pt.Eval.Proximity_routing.p90;
                Printf.sprintf "%.4f" pt.Eval.Proximity_routing.p50;
                Printf.sprintf "%.2f" pt.Eval.Proximity_routing.mean_hops;
              ])
            (Eval.Proximity_routing.run ~progress ~specs p)
        in
        table
          (Printf.sprintf "fig9 %s" (Topology.Model.kind_to_string kind))
          (header :: rows);
        rows)
      kind
  in
  write (fun path -> Eval.Report.csv ~path ~header rows) csv

let fig9_cmd =
  let server_counts =
    Arg.(
      value
      & opt (list int) fig9_default.server_counts
      & info [ "servers" ] ~docv:"LIST" ~doc:"Server counts to evaluate.")
  in
  let queries =
    Arg.(
      value
      & opt int fig9_default.queries
      & info [ "queries" ] ~docv:"N" ~doc:"Routing queries per point.")
  in
  let replicas =
    Arg.(
      value & opt int 10
      & info [ "replicas" ] ~docv:"R" ~doc:"Replicas per finger (paper: 10).")
  in
  let substrates =
    Arg.(
      value
      & opt (list substrate_conv) []
      & info [ "substrate" ] ~docv:"LIST"
          ~doc:
            "Race these substrates (comma-separated: chord, chord-replica, \
             chord-finger-set, chord-pns, koorde, koorde2..koorde256) \
             instead of the paper's policy set.")
  in
  let doc = "Proximity-routing latency stretch vs. system size (Fig. 9)." in
  Cmd.v (Cmd.info "fig9" ~doc)
    Term.(
      const (fun kind -> run_fig9 (kinds kind))
      $ kind_arg $ nodes_arg fig9_default.topo_nodes $ server_counts $ queries
      $ replicas $ seed_arg $ csv_arg $ substrates)

(* --- bakeoff --- *)

let bakeoff_default = Eval.Bakeoff.default_params Topology.Model.Transit_stub

let run_bakeoff kind nodes servers queries state_samples seed substrates csv
    json =
  let specs = match substrates with [] -> bakeoff_default.specs | l -> l in
  let p =
    {
      Eval.Bakeoff.kind;
      topo_nodes = nodes;
      n_servers = servers;
      queries;
      state_samples;
      seed;
      specs;
    }
  in
  let pts = Eval.Bakeoff.run ~progress p in
  let header = Eval.Bakeoff.header in
  let rows = Eval.Bakeoff.rows pts in
  table
    (Printf.sprintf "substrate bakeoff %s (%d servers, %d queries)"
       (Topology.Model.kind_to_string kind)
       servers queries)
    (header :: rows);
  write (fun path -> Eval.Report.csv ~path ~header rows) csv;
  write (fun path -> Json.to_file ~path (Eval.Bakeoff.to_json p pts)) json

let bakeoff_cmd =
  let kind =
    Arg.(
      value
      & opt kind_conv bakeoff_default.kind
      & info [ "t"; "topology" ] ~docv:"KIND"
          ~doc:"Topology kind: plrg or transit-stub.")
  in
  let servers =
    Arg.(
      value
      & opt int bakeoff_default.n_servers
      & info [ "servers" ] ~docv:"N"
          ~doc:
            "Ring size. Koorde degree 8 out-hops classic Chord from about \
             10^4 servers up; below that Chord's larger finger table wins \
             on hops (it always loses on state).")
  in
  let queries =
    Arg.(
      value
      & opt int bakeoff_default.queries
      & info [ "queries" ] ~docv:"N" ~doc:"Routing queries per substrate.")
  in
  let state_samples =
    Arg.(
      value
      & opt int bakeoff_default.state_samples
      & info [ "state-samples" ] ~docv:"N"
          ~doc:"Nodes sampled for the state-bytes average.")
  in
  let substrates =
    Arg.(
      value
      & opt (list substrate_conv) []
      & info [ "substrate" ] ~docv:"LIST"
          ~doc:
            "Race only these substrates (comma-separated). Default: \
             chord:default, closest-finger-replica, prefix-pns, koorde(2), \
             koorde(8).")
  in
  let doc =
    "Race lookup substrates (Chord policies vs Koorde degrees) over one \
     membership and topology: hops, first-packet stretch, routing-state \
     bytes per node.  --json writes the substrate section's shape."
  in
  Cmd.v (Cmd.info "bakeoff" ~doc)
    Term.(
      const run_bakeoff $ kind $ nodes_arg bakeoff_default.topo_nodes $ servers
      $ queries $ state_samples $ seed_arg $ substrates $ csv_arg $ json_arg)

(* --- micro --- *)

(* From 2 KB on each payload copy is allocated on OCaml's major heap:
   the step in Fig. 10 that EXPERIMENTS.md discusses. *)
let payloads = [ 0; 64; 128; 256; 512; 1024; 2048; 4096 ]

let run_micro seed csv =
  let env = Eval.Microbench.insert_env ~seed () in
  let mean_ns, stdev_ns = Eval.Microbench.time_per_iter_ns env in
  Printf.printf "trigger insertion: mean %.2f us, stdev %.2f us\n"
    (mean_ns /. 1e3) (stdev_ns /. 1e3);
  Printf.printf "max sustainable triggers @30s refresh: %.3g\n"
    (Eval.Report.insertion_capacity ~insert_ns:mean_ns ~refresh_s:30.);
  (* The constraints ablation is a timing too, so it is printed here and
     [ablations] stays deterministic. *)
  let k = Eval.Ablations.constraints ~seed () in
  Printf.printf
    "constraints (Sec. IV-J1): insert admission %.2f us checked vs %.2f us \
     unchecked\n\n"
    (k.Eval.Ablations.ns_with_check /. 1e3)
    (k.Eval.Ablations.ns_without_check /. 1e3);
  let fwd_rows =
    List.map
      (fun payload ->
        let fenv = Eval.Microbench.forward_env ~payload ~seed () in
        let m, _ = Eval.Microbench.time_per_iter_ns fenv in
        let t = Eval.Microbench.throughput ~payload ~seed () in
        [
          string_of_int payload;
          Printf.sprintf "%.2f" (m /. 1e3);
          Printf.sprintf "%.0f" t.Eval.Microbench.packets_per_sec;
          Printf.sprintf "%.2f" t.Eval.Microbench.user_mbps;
        ])
      payloads
  in
  table "forwarding (fig10) and throughput (fig12)"
    ([ "payload (B)"; "us/pkt"; "packets/s"; "user Mb/s" ] :: fwd_rows);
  let route_rows =
    List.map
      (fun n ->
        let renv = Eval.Microbench.route_env ~n_nodes:n ~seed () in
        let m, _ = Eval.Microbench.time_per_iter_ns renv in
        [ string_of_int n; Printf.sprintf "%.2f" (m /. 1e3) ])
      [ 2; 4; 8; 16; 32 ]
  in
  table "routing overhead (fig11)" ([ "i3 nodes"; "us/pkt" ] :: route_rows);
  write
    (fun path ->
      Eval.Report.csv ~path
        ~header:[ "payload"; "us_per_pkt"; "pps"; "mbps" ]
        fwd_rows)
    csv

let micro_cmd =
  let doc =
    "Prototype-style microbenchmarks (Sec. V-D) and the trigger-constraints \
     ablation (Sec. IV-J1), timed on the wall clock."
  in
  Cmd.v (Cmd.info "micro" ~doc) Term.(const run_micro $ seed_arg $ csv_arg)

(* --- ablations --- *)

let run_ablations () =
  let c = Eval.Ablations.sender_cache () in
  Printf.printf
    "sender cache (Sec. IV-E):    %.2f servers/packet with cache, %.2f without\n"
    c.Eval.Ablations.hops_with_cache c.Eval.Ablations.hops_without_cache;
  let r = Eval.Ablations.replication () in
  Printf.printf
    "replication (Sec. IV-C):     %d/%d packets survive the failure window \
     with mirroring, %d/%d without\n"
    r.Eval.Ablations.delivered_with r.Eval.Ablations.attempts
    r.Eval.Ablations.delivered_without r.Eval.Ablations.attempts;
  let ch = Eval.Ablations.challenges () in
  Printf.printf
    "challenges (Sec. IV-J3):     insert->ack %.1f ms challenged vs %.1f ms \
     direct (one extra RTT)\n"
    ch.Eval.Ablations.ack_ms_with ch.Eval.Ablations.ack_ms_without

let ablations_cmd =
  let doc =
    "The paper's design mechanisms on vs. off: sender cache, replication \
     and challenges.  The trigger-constraints ablation is a wall-clock \
     timing and is printed by micro."
  in
  Cmd.v (Cmd.info "ablations" ~doc) Term.(const run_ablations $ const ())

(* --- health --- *)

let run_health seed servers period horizon fault fault_at heal_at dump_path =
  let metrics = Obs.Metrics.create () in
  let spans = Obs.Trace.create () in
  let tracer = Obs.Trace.create () in
  let d = Transport.Dynamic.create ~seed ~metrics ~tracer ~spans () in
  for i = 0 to servers - 1 do
    ignore (Transport.Dynamic.add_server d ~site:i ())
  done;
  (* Sped-up soft state so recovery fits in a short demo horizon. *)
  let host_config =
    {
      Transport.Host.refresh_period_ms = 2_000.;
      cache_ttl_ms = 4_000.;
      ack_grace_ms = 5_000.;
    }
  in
  let recv = Transport.Dynamic.new_host d ~site:0 ~config:host_config () in
  let send = Transport.Dynamic.new_host d ~site:1 ~config:host_config () in
  let fleet =
    Harness.Fleet.sim ~rng:(Rng.of_int (seed + 1)) d ~sender:send
      ~receiver:recv
  in
  let r = Harness.Recovery.create fleet in
  (match Harness.Recovery.converges_within r ~budget:120_000. with
  | Some ms ->
      progress (Printf.sprintf "ring converged %.0f ms after last join" ms)
  | None -> progress "warning: ring did not converge within 120 s");
  let id = Transport.Host.new_private_id recv in
  Transport.Host.insert_trigger recv id;
  Transport.Dynamic.run_for d 1_000.;
  let flow = Harness.Recovery.start_flow r ~name:"flow1" id in
  let monitor =
    Harness.Recovery.monitor ~period r ~rules:(Harness.Recovery.sim_rules flow)
  in
  let fault_abs = Transport.Dynamic.now d +. fault_at in
  (match fault with
  | `None -> ()
  | `Blackhole ->
      progress "fault: total blackhole (loss=1.0) on both planes";
      Harness.Fleet.inject fleet
        [ (fault_at, Faults.Loss 1.0); (heal_at, Faults.Loss 0.0) ]
  | `Partition ->
      progress "fault: partition site 0 away; heal later";
      Harness.Fleet.inject fleet
        [ (fault_at, Faults.Partition [ 0 ]); (heal_at, Faults.Heal) ]
  | `Kill ->
      progress "fault: crash server 0, restart later";
      Harness.Fleet.inject fleet
        [ (fault_at, Faults.Crash 0); (heal_at, Faults.Restart 0) ]);
  let header =
    "t (ms)" :: "overall"
    :: List.map
         (fun (r : Obs.Health.rule) -> r.rule)
         (Obs.Health.rules (Harness.Recovery.health monitor))
  in
  let stop_at = Transport.Dynamic.now d +. horizon in
  let rec live rows =
    if Transport.Dynamic.now d < stop_at then begin
      Transport.Dynamic.run_for d period;
      live (Harness.Recovery.live_row monitor :: rows)
    end
    else List.rev rows
  in
  let rows = live [] in
  Harness.Recovery.stop_flow flow;
  Harness.Recovery.stop_monitor monitor;
  table "health per scrape" (header :: rows);
  if fault <> `None then begin
    let health = Harness.Recovery.health monitor in
    (match Obs.Health.time_to_detect health ~fault_at:fault_abs with
    | Some t -> Printf.printf "monitor time-to-detect:  %.0f ms after the fault\n" t
    | None -> print_endline "monitor never detected the fault");
    (match Obs.Health.time_to_recover health ~fault_at:fault_abs with
    | Some t -> Printf.printf "monitor time-to-recover: %.0f ms after the fault\n" t
    | None -> print_endline "monitor never saw recovery");
    match Harness.Recovery.time_to_recovery flow ~after:fault_abs with
    | Some t ->
        Printf.printf "ground-truth first delivery after fault: %.0f ms\n" t
    | None -> print_endline "ground truth: flow never recovered"
  end;
  let dumps = Harness.Recovery.dumps monitor in
  Printf.printf "flight-recorder dumps captured: %d\n" (List.length dumps);
  Option.iter
    (fun path ->
      Json.to_file ~path (Json.List (List.map snd dumps));
      progress (Printf.sprintf "wrote %s" path))
    dump_path

let health_cmd =
  let servers =
    Arg.(value & opt int 10 & info [ "servers" ] ~docv:"N" ~doc:"Ring size.")
  in
  let period =
    Arg.(
      value & opt float 500.
      & info [ "period" ] ~docv:"MS" ~doc:"Scrape period (virtual ms).")
  in
  let horizon =
    Arg.(
      value & opt float 40_000.
      & info [ "horizon" ] ~docv:"MS" ~doc:"Virtual ms to run after setup.")
  in
  let fault =
    Arg.(
      value
      & opt
          (enum
             [
               ("none", `None);
               ("blackhole", `Blackhole);
               ("partition", `Partition);
               ("kill", `Kill);
             ])
          `Blackhole
      & info [ "fault" ] ~docv:"KIND"
          ~doc:"Fault to inject: none, blackhole, partition or kill.")
  in
  let fault_at =
    Arg.(
      value & opt float 10_000.
      & info [ "fault-at" ] ~docv:"MS" ~doc:"Fault offset from setup end.")
  in
  let heal_at =
    Arg.(
      value & opt float 22_000.
      & info [ "heal-at" ] ~docv:"MS" ~doc:"Heal/restart offset from setup end.")
  in
  let dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"PATH"
          ~doc:"Write captured flight-recorder dumps as a JSON array.")
  in
  let doc =
    "Run the health monitor live over a chaos scenario: one probe flow, \
     SLO verdicts per scrape, flight-recorder dumps on violation."
  in
  Cmd.v (Cmd.info "health" ~doc)
    Term.(
      const run_health $ seed_arg $ servers $ period $ horizon $ fault
      $ fault_at $ heal_at $ dump)

(* --- scale --- *)

let run_scale hosts triggers servers refresh =
  List.iter
    (fun (k, v) -> Printf.printf "%-26s %s\n" k v)
    (Eval.Report.scalability_rows ~hosts ~triggers_per_host:triggers ~servers
       ~refresh_s:refresh)

let scale_cmd =
  let hosts =
    Arg.(value & opt float 1e9 & info [ "hosts" ] ~doc:"End-host count.")
  in
  let triggers =
    Arg.(value & opt float 10. & info [ "triggers" ] ~doc:"Triggers per host.")
  in
  let servers =
    Arg.(value & opt float 1e5 & info [ "servers" ] ~doc:"i3 server count.")
  in
  let refresh =
    Arg.(value & opt float 30. & info [ "refresh" ] ~doc:"Refresh period (s).")
  in
  let doc = "Scalability back-of-the-envelope (Sec. VII)." in
  Cmd.v (Cmd.info "scale" ~doc)
    Term.(const run_scale $ hosts $ triggers $ servers $ refresh)

let () =
  let doc = "Experiment driver for the i3 reproduction." in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "i3_sim" ~doc)
          [
            fig8_cmd; fig9_cmd; bakeoff_cmd; micro_cmd; ablations_cmd; scale_cmd;
            health_cmd;
          ]))
