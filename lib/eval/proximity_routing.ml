type params = {
  kind : Topology.Model.kind;
  topo_nodes : int;
  server_counts : int list;
  queries : int;
  seed : int;
}

let default_params kind =
  {
    kind;
    topo_nodes = 5000;
    server_counts = [ 1 lsl 10; 1 lsl 11; 1 lsl 12; 1 lsl 13; 1 lsl 14; 1 lsl 15 ];
    queries = 1000;
    seed = 1;
  }

type point = {
  n_servers : int;
  spec : Koorde.Substrate.spec;
  p90 : float;
  p50 : float;
  mean_hops : float;
}

let policies_for ~replicas =
  List.map
    (fun policy -> Koorde.Substrate.Chord policy)
    [
      Chord.Routing.Default;
      Chord.Routing.Closest_finger_replica { replicas };
      Chord.Routing.Closest_finger_set { gamma = replicas + 1 };
      (* the Sec. VII alternative substrate: Pastry-style prefix routing *)
      Chord.Routing.Prefix_pns { digit_bits = 4; scan = 16 };
    ]

type race = {
  oracle : Chord.Oracle.t;
  ring_latency : int -> int -> float;
  queries : (int * Id.t) array;
}

let draw_race rng model ~n_servers ~queries =
  let oracle, _, ring_latency = Workload.placed_ring rng model ~n_servers in
  let queries =
    Array.init queries (fun _ -> (Rng.int rng n_servers, Id.random rng))
  in
  { oracle; ring_latency; queries }

let route_race race spec =
  let sub = Koorde.Substrate.create ~latency:race.ring_latency race.oracle spec in
  let leg (start, key) =
    let path = Koorde.Substrate.route sub ~start ~key in
    let target = Chord.Oracle.successor_index race.oracle key in
    let direct = race.ring_latency start target in
    ( float_of_int (List.length path - 1),
      if direct > 0. then
        Some (Chord.Routing.path_latency race.ring_latency path /. direct)
      else None )
  in
  (sub, Array.map leg race.queries)

let run ?(progress = fun _ -> ()) ~specs p =
  let rng = Rng.of_int p.seed in
  progress
    (Printf.sprintf "building %s topology (%d nodes)..."
       (Topology.Model.kind_to_string p.kind)
       p.topo_nodes);
  let model = Topology.Model.build (Rng.split rng) p.kind ~n:p.topo_nodes in
  List.concat_map
    (fun n_servers ->
      let race = draw_race rng model ~n_servers ~queries:p.queries in
      List.map
        (fun spec ->
          progress
            (Printf.sprintf "N=%d substrate=%s: %d queries..." n_servers
               (Koorde.Substrate.label spec)
               p.queries);
          let legs =
            Array.to_list (snd (route_race race spec))
            |> List.filter_map (fun (hops, stretch) ->
                   Option.map (fun s -> (hops, s)) stretch)
          in
          let xs = Array.of_list (List.map snd legs) in
          {
            n_servers;
            spec;
            p90 = Stats.percentile 90. xs;
            p50 = Stats.percentile 50. xs;
            mean_hops = Stats.mean (Array.of_list (List.map fst legs));
          })
        specs)
    p.server_counts
