type params = {
  kind : Topology.Model.kind;
  topo_nodes : int;
  n_servers : int;
  queries : int;
  state_samples : int;
  seed : int;
  specs : Koorde.Substrate.spec list;
}

let default_params kind =
  {
    kind;
    topo_nodes = 5000;
    n_servers = 10_000;
    queries = 1000;
    state_samples = 256;
    seed = 1;
    specs = Koorde.Substrate.bakeoff_specs;
  }

type point = {
  spec : Koorde.Substrate.spec;
  mean_hops : float;
  p99_hops : float;
  p50_stretch : float;
  p90_stretch : float;
  state_bytes_mean : float;
  candidates_mean : float;
}

let run ?(progress = fun _ -> ()) p =
  if p.n_servers < 2 then invalid_arg "Bakeoff.run: need at least 2 servers";
  let rng = Rng.of_int p.seed in
  progress
    (Printf.sprintf "building %s topology (%d nodes)..."
       (Topology.Model.kind_to_string p.kind)
       p.topo_nodes);
  let model = Topology.Model.build (Rng.split rng) p.kind ~n:p.topo_nodes in
  (* One query set and one state-sample node set shared by every
     substrate: the race is paired. *)
  let race =
    Proximity_routing.draw_race rng model ~n_servers:p.n_servers
      ~queries:p.queries
  in
  let sample_nodes =
    Array.init (min p.state_samples p.n_servers) (fun _ ->
        Rng.int rng p.n_servers)
  in
  List.map
    (fun spec ->
      progress
        (Printf.sprintf "racing %s: %d queries over %d servers..."
           (Koorde.Substrate.label spec)
           p.queries p.n_servers);
      let sub, legs = Proximity_routing.route_race race spec in
      let state =
        Array.map
          (fun n -> float_of_int (Koorde.Substrate.state_bytes sub n))
          sample_nodes
      in
      let cands =
        Array.map
          (fun n -> float_of_int (Koorde.Substrate.candidate_count sub n))
          sample_nodes
      in
      let hop_arr = Array.map fst legs in
      let stretch_arr =
        Array.of_list (List.filter_map snd (Array.to_list legs))
      in
      {
        spec;
        mean_hops = Stats.mean hop_arr;
        p99_hops = Stats.percentile 99. hop_arr;
        p50_stretch = Stats.percentile 50. stretch_arr;
        p90_stretch = Stats.percentile 90. stretch_arr;
        state_bytes_mean = Stats.mean state;
        candidates_mean = Stats.mean cands;
      })
    p.specs

let header =
  [
    "substrate"; "hops_mean"; "hops_p99"; "stretch_p50"; "stretch_p90";
    "state_bytes"; "candidates";
  ]

let rows pts =
  List.map
    (fun pt ->
      [
        Koorde.Substrate.label pt.spec;
        Printf.sprintf "%.3f" pt.mean_hops;
        Printf.sprintf "%.1f" pt.p99_hops;
        Printf.sprintf "%.3f" pt.p50_stretch;
        Printf.sprintf "%.3f" pt.p90_stretch;
        Printf.sprintf "%.1f" pt.state_bytes_mean;
        Printf.sprintf "%.1f" pt.candidates_mean;
      ])
    pts

let to_json p pts =
  Json.Obj
    ([
       ("kind", Json.String (Topology.Model.kind_to_string p.kind));
       ("n_servers", Json.Int p.n_servers);
       ("queries", Json.Int p.queries);
     ]
    @ List.map
        (fun pt ->
          ( Koorde.Substrate.slug pt.spec,
            Json.Obj
              [
                ("label", Json.String (Koorde.Substrate.label pt.spec));
                ("hops_mean", Json.Float pt.mean_hops);
                ("hops_p99", Json.Float pt.p99_hops);
                ("stretch_p50", Json.Float pt.p50_stretch);
                ("stretch_p90", Json.Float pt.p90_stretch);
                ("state_bytes_per_node", Json.Float pt.state_bytes_mean);
                ("candidates_per_node", Json.Float pt.candidates_mean);
              ] ))
        pts)
