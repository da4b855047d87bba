(* i3_sim: command-line driver for full-scale experiment runs.

   Subcommands:
     fig8     latency stretch vs. trigger samples (paper Fig. 8)
     fig9     proximity routing stretch vs. system size (paper Fig. 9)
     bakeoff  substrate race: chord variants vs koorde, hops/stretch/state
     micro    trigger insertion / forwarding / routing / throughput (Sec. V-D)
     scale    the Sec. VII scalability arithmetic

   Every run is deterministic under --seed and can dump CSV for plotting. *)

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
  Arg.conv (parse, fun ppf s -> Fmt.string ppf (Koorde.Substrate.label s))

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
  Arg.conv (parse, fun ppf k -> Fmt.string ppf (Topology.Model.kind_to_string k))

let kind_arg =
  Arg.(
    value
    & opt (some kind_conv) None
    & info [ "t"; "topology" ] ~docv:"KIND"
        ~doc:"Topology kind: plrg or transit-stub. Default: both in sequence.")

let nodes_arg =
  Arg.(
    value & opt int 5000
    & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Topology size (paper: 5000).")

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
    & info [ "json" ] ~docv:"PATH"
        ~doc:"Also write the series as a JSON array of objects.")

let progress msg = Printf.eprintf "# %s\n%!" msg

let kinds = function
  | Some k -> [ k ]
  | None -> [ Topology.Model.Plrg; Topology.Model.Transit_stub ]

(* --- fig8 --- *)

let run_fig8 kind nodes servers measurements samples seed csv json substrate =
  let header = "topology" :: Eval.Latency_stretch.header in
  let all_rows = ref [] in
  Option.iter
    (fun s ->
      progress
        (Printf.sprintf "first-packet path routed over %s"
           (Koorde.Substrate.label s)))
    substrate;
  List.iter
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
      all_rows := !all_rows @ rows;
      Eval.Report.table
        ~title:(Printf.sprintf "fig8 %s" (Topology.Model.kind_to_string kind))
        ~header rows)
    kind;
  Option.iter
    (fun path ->
      Eval.Report.csv ~path ~header !all_rows;
      progress (Printf.sprintf "wrote %s" path))
    csv;
  Option.iter
    (fun path ->
      Eval.Report.json ~path ~header !all_rows;
      progress (Printf.sprintf "wrote %s" path))
    json

let fig8_cmd =
  let servers =
    Arg.(
      value & opt int (1 lsl 14)
      & info [ "servers" ] ~docv:"N" ~doc:"Number of i3 servers (paper: 2^14).")
  in
  let measurements =
    Arg.(
      value & opt int 1000
      & info [ "measurements" ] ~docv:"N"
          ~doc:"Sender/receiver pairs per point (paper: 1000).")
  in
  let samples =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8; 16; 32; 64 ]
      & info [ "samples" ] ~docv:"LIST" ~doc:"Sample counts to evaluate.")
  in
  let doc = "Latency stretch vs. number of trigger samples (Fig. 8)." in
  Cmd.v (Cmd.info "fig8" ~doc)
    Term.(
      const (fun kind nodes servers measurements samples seed csv json substrate ->
          run_fig8 (kinds kind) nodes servers measurements samples seed csv json
            substrate)
      $ kind_arg $ nodes_arg $ servers $ measurements $ samples $ seed_arg
      $ csv_arg $ json_arg $ substrate_arg)

(* --- fig9 --- *)

let run_fig9 kind nodes server_counts queries replicas seed csv substrates =
  let specs =
    match substrates with
    | [] -> Eval.Proximity_routing.policies_for ~replicas
    | l -> l
  in
  let all_rows = ref [] in
  List.iter
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
      all_rows := !all_rows @ rows;
      Eval.Report.table
        ~title:(Printf.sprintf "fig9 %s" (Topology.Model.kind_to_string kind))
        ~header:[ "topology"; "N"; "policy"; "p90"; "p50"; "hops" ]
        rows)
    kind;
  Option.iter
    (fun path ->
      Eval.Report.csv ~path
        ~header:[ "topology"; "N"; "policy"; "p90"; "p50"; "hops" ]
        !all_rows;
      progress (Printf.sprintf "wrote %s" path))
    csv

let fig9_cmd =
  let server_counts =
    Arg.(
      value
      & opt (list int)
          [ 1 lsl 10; 1 lsl 11; 1 lsl 12; 1 lsl 13; 1 lsl 14; 1 lsl 15 ]
      & info [ "servers" ] ~docv:"LIST"
          ~doc:"Server counts to evaluate (paper: 2^10..2^15).")
  in
  let queries =
    Arg.(
      value & opt int 1000
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
      const (fun kind nodes server_counts queries replicas seed csv substrates ->
          run_fig9 (kinds kind) nodes server_counts queries replicas seed csv
            substrates)
      $ kind_arg $ nodes_arg $ server_counts $ queries $ replicas $ seed_arg
      $ csv_arg $ substrates)

(* --- bakeoff --- *)

(* Read-modify-write ONLY the [substrate] key of the bench JSON, so a
   bakeoff run refreshes the gated section without clobbering the other
   sections a bench run produced. *)
let merge_substrate_section ~path section =
  let base =
    if Sys.file_exists path then
      try Json.of_file ~path
      with Json.Parse_error _ | Sys_error _ -> Json.Obj []
    else
      Json.Obj
        [ ("schema", Json.String "i3-bench/2"); ("mode", Json.String "tool") ]
  in
  let fields = match base with Json.Obj fields -> fields | _ -> [] in
  let fields = List.remove_assoc "substrate" fields in
  Json.to_file ~path (Json.Obj (fields @ [ ("substrate", section) ]))

let run_bakeoff kind nodes servers queries state_samples seed substrates csv
    bench_out =
  let specs =
    match substrates with [] -> Koorde.Substrate.bakeoff_specs | l -> l
  in
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
  Eval.Report.table
    ~title:
      (Printf.sprintf "substrate bakeoff %s (%d servers, %d queries)"
         (Topology.Model.kind_to_string kind)
         servers queries)
    ~header rows;
  Option.iter
    (fun path ->
      Eval.Report.csv ~path ~header rows;
      progress (Printf.sprintf "wrote %s" path))
    csv;
  Option.iter
    (fun path ->
      merge_substrate_section ~path (Eval.Bakeoff.to_json p pts);
      progress (Printf.sprintf "merged substrate section into %s" path))
    bench_out

let bakeoff_cmd =
  let kind =
    Arg.(
      value
      & opt kind_conv Topology.Model.Transit_stub
      & info [ "t"; "topology" ] ~docv:"KIND"
          ~doc:"Topology kind: plrg or transit-stub.")
  in
  let servers =
    Arg.(
      value & opt int 10_000
      & info [ "servers" ] ~docv:"N"
          ~doc:
            "Ring size. Koorde degree 8 out-hops classic Chord from about \
             10^4 servers up; below that Chord's larger finger table wins \
             on hops (it always loses on state).")
  in
  let queries =
    Arg.(
      value & opt int 1000
      & info [ "queries" ] ~docv:"N" ~doc:"Routing queries per substrate.")
  in
  let state_samples =
    Arg.(
      value & opt int 256
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
  let bench_out =
    Arg.(
      value
      & opt (some string) (Some "BENCH_i3.json")
      & info [ "bench-out" ] ~docv:"PATH"
          ~doc:
            "Merge the gated [substrate] section into this bench JSON \
             (created if missing; other sections preserved). Pass an empty \
             value via --bench-out= to skip.")
  in
  let bench_out_opt =
    Term.(
      const (function Some "" -> None | v -> v) $ bench_out)
  in
  let doc =
    "Race lookup substrates (Chord policies vs Koorde degrees) over one \
     membership and topology: hops, first-packet stretch, routing-state \
     bytes per node."
  in
  Cmd.v (Cmd.info "bakeoff" ~doc)
    Term.(
      const (fun kind nodes servers queries state_samples seed substrates csv
                 bench_out ->
          run_bakeoff kind nodes servers queries state_samples seed substrates
            csv bench_out)
      $ kind $ nodes_arg $ servers $ queries $ state_samples $ seed_arg
      $ substrates $ csv_arg $ bench_out_opt)

(* --- micro --- *)

let run_micro seed csv =
  let env = Eval.Microbench.insert_env ~seed () in
  let mean_ns, stdev_ns = Eval.Microbench.time_per_iter_ns env () in
  Printf.printf "trigger insertion: mean %.2f us, stdev %.2f us\n"
    (mean_ns /. 1e3) (stdev_ns /. 1e3);
  Printf.printf "max sustainable triggers @30s refresh: %.3g\n\n"
    (Eval.Report.insertion_capacity ~insert_ns:mean_ns ~refresh_s:30.);
  let payloads = [ 0; 64; 128; 256; 512; 1024 ] in
  let fwd_rows =
    List.map
      (fun payload ->
        let fenv = Eval.Microbench.forward_env ~payload ~seed () in
        let m, _ = Eval.Microbench.time_per_iter_ns fenv () in
        let t = Eval.Microbench.throughput ~payload ~seed () in
        [
          string_of_int payload;
          Printf.sprintf "%.2f" (m /. 1e3);
          Printf.sprintf "%.0f" t.Eval.Microbench.packets_per_sec;
          Printf.sprintf "%.2f" t.Eval.Microbench.user_mbps;
        ])
      payloads
  in
  Eval.Report.table ~title:"forwarding (fig10) and throughput (fig12)"
    ~header:[ "payload (B)"; "us/pkt"; "packets/s"; "user Mb/s" ]
    fwd_rows;
  let route_rows =
    List.map
      (fun n ->
        let renv = Eval.Microbench.route_env ~n_nodes:n ~seed () in
        let m, _ = Eval.Microbench.time_per_iter_ns renv () in
        [ string_of_int n; Printf.sprintf "%.2f" (m /. 1e3) ])
      [ 2; 4; 8; 16; 32 ]
  in
  Eval.Report.table ~title:"routing overhead (fig11)"
    ~header:[ "i3 nodes"; "us/pkt" ] route_rows;
  Option.iter
    (fun path ->
      Eval.Report.csv ~path
        ~header:[ "payload"; "us_per_pkt"; "pps"; "mbps" ]
        fwd_rows)
    csv

let micro_cmd =
  let doc = "Prototype-style microbenchmarks (Sec. V-D)." in
  Cmd.v (Cmd.info "micro" ~doc)
    Term.(const (fun seed csv -> run_micro seed csv) $ seed_arg $ csv_arg)

(* --- health --- *)

let print_row widths cells =
  List.iteri
    (fun i c -> Printf.printf "%s%-*s" (if i = 0 then "" else "  ") (List.nth widths i) c)
    cells;
  print_newline ()

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
  let widths = List.map (fun h -> max 14 (String.length h)) header in
  print_row widths header;
  print_row widths (List.map (fun w -> String.make w '-') widths);
  let stop_at = Transport.Dynamic.now d +. horizon in
  let rec live () =
    if Transport.Dynamic.now d < stop_at then begin
      Transport.Dynamic.run_for d period;
      print_row widths (Harness.Recovery.live_row monitor);
      live ()
    end
  in
  live ();
  Harness.Recovery.stop_flow flow;
  Harness.Recovery.stop_monitor monitor;
  print_newline ();
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
          [ fig8_cmd; fig9_cmd; bakeoff_cmd; micro_cmd; scale_cmd; health_cmd ]))
