type params = {
  kind : Topology.Model.kind;
  topo_nodes : int;
  n_servers : int;
  measurements : int;
  sample_counts : int list;
  seed : int;
}

let default_params kind =
  {
    kind;
    topo_nodes = 5000;
    n_servers = 1 lsl 14;
    measurements = 1000;
    sample_counts = [ 1; 2; 4; 8; 16; 32; 64 ];
    seed = 1;
  }

type point = {
  samples : int;
  p90 : float;
  p50 : float;
  mean : float;
}

let stretch_buckets =
  (* stretch >= 1 by construction; fine resolution up to 4x, coarser tail *)
  Array.append
    (Obs.Metrics.linear_buckets ~start:1. ~width:0.1 ~count:31)
    (Obs.Metrics.linear_buckets ~start:4.5 ~width:0.5 ~count:12)

let run ?(progress = fun _ -> ()) ?metrics ?substrate p =
  let rng = Rng.of_int p.seed in
  progress
    (Printf.sprintf "building %s topology (%d nodes)..."
       (Topology.Model.kind_to_string p.kind)
       p.topo_nodes);
  let model = Topology.Model.build (Rng.split rng) p.kind ~n:p.topo_nodes in
  let oracle, sites, ring_latency =
    Workload.placed_ring rng model ~n_servers:p.n_servers
  in
  let dist = Topology.Model.oracle model in
  let router =
    Option.map
      (fun spec ->
        progress
          (Printf.sprintf "substrate-routed first packet via %s"
             (Koorde.Substrate.label spec));
        Koorde.Substrate.create ~latency:ring_latency oracle spec)
      substrate
  in
  let max_samples = List.fold_left max 1 p.sample_counts in
  progress
    (Printf.sprintf "measuring %d sender/receiver pairs x %d samples..."
       p.measurements max_samples);
  (* stretch.(si).(mi): stretch of measurement mi using the first
     sample_counts[si] sampled identifiers. *)
  let counts = Array.of_list (List.sort_uniq compare p.sample_counts) in
  let stretches = Array.map (fun _ -> ref []) counts in
  let measured = ref 0 in
  while !measured < p.measurements do
    let sender, receiver = Workload.host_pair rng model in
    let direct = Topology.Dijkstra.distance dist sender receiver in
    if direct > 0. && direct < infinity then begin
      incr measured;
      let from_receiver = Topology.Dijkstra.distances_from dist receiver in
      let from_sender = Topology.Dijkstra.distances_from dist sender in
      (* In substrate-routed mode the sender's first packet enters the
         overlay at a random gateway server and is routed hop by hop to
         the trigger's server, as before the sender learns the server's
         address (Sec. IV-E). *)
      let gateway =
        match router with Some _ -> Rng.int rng p.n_servers | None -> 0
      in
      (* Nested sampling: the best server among the first s draws. *)
      let best_site = ref (-1) in
      let best_idx = ref (-1) in
      let best_key = ref Id.zero in
      let best_d = ref infinity in
      let drawn = ref 0 in
      Array.iteri
        (fun si target ->
          while !drawn < target do
            incr drawn;
            let id = Id.random rng in
            let idx = Chord.Oracle.responsible oracle id in
            let server_site = sites.(idx) in
            if from_receiver.(server_site) < !best_d then begin
              best_d := from_receiver.(server_site);
              best_site := server_site;
              best_idx := idx;
              best_key := Id.routing_key id
            end
          done;
          let s = !best_site in
          let stretch =
            match router with
            | None -> (from_sender.(s) +. from_receiver.(s)) /. direct
            | Some sub ->
                let path =
                  Koorde.Substrate.route sub ~start:gateway ~key:!best_key
                in
                assert (List.rev path |> List.hd = !best_idx);
                (from_sender.(sites.(gateway))
                +. Chord.Routing.path_latency ring_latency path
                +. from_receiver.(s))
                /. direct
          in
          (match metrics with
          | Some reg ->
              let h =
                Obs.Metrics.histogram reg "eval.stretch"
                  ~labels:
                    [
                      ("topology", Topology.Model.kind_to_string p.kind);
                      ("samples", string_of_int target);
                    ]
                  ~buckets:stretch_buckets
              in
              Obs.Metrics.observe h stretch
          | None -> ());
          stretches.(si) := stretch :: !(stretches.(si)))
        counts
    end
  done;
  Array.to_list
    (Array.mapi
       (fun si samples ->
         let xs = Array.of_list !(stretches.(si)) in
         {
           samples;
           p90 = Stats.percentile 90. xs;
           p50 = Stats.percentile 50. xs;
           mean = Stats.mean xs;
         })
       counts)

let header = [ "samples"; "p90"; "p50"; "mean" ]

let rows pts =
  List.map
    (fun pt ->
      [
        string_of_int pt.samples;
        Printf.sprintf "%.4f" pt.p90;
        Printf.sprintf "%.4f" pt.p50;
        Printf.sprintf "%.4f" pt.mean;
      ])
    pts
