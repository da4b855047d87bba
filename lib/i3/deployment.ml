(* Shared mutable ring state; every server's view closes over it plus its
   own index cell, so one [reconverge] updates every view at once. *)
type ring_state = {
  mutable oracle : Chord.Oracle.t;
  mutable routing : Koorde.Substrate.t;
  mutable addrs : int array; (* ring index -> endpoint address *)
}

type member = { server : Server.t; index : int ref }

type t = {
  engine : Sim.Engine.t;
  net : string Net.t;
  rng : Rng.t;
  model : Topology.Model.t option;
  latency : int -> int -> float;
  substrate : Koorde.Substrate.spec;
  server_config : Server.config option;
  metrics : Obs.Metrics.t;
  tracer : Obs.Trace.t;
  spans : Obs.Trace.t;
  state : ring_state;
  mutable ring : member array; (* current ring order *)
  mutable all_servers : Server.t array; (* creation order, incl. dead ones *)
}

let make_routing ~substrate ~oracle ~latency ~(ring_sites : int array) =
  let ring_latency i j = latency ring_sites.(i) ring_sites.(j) in
  Koorde.Substrate.create ~latency:ring_latency oracle substrate

let view_for state index =
  {
    Server.owns =
      (fun id -> Chord.Oracle.responsible state.oracle id = !index);
    next_hop =
      (fun id ->
        match
          Koorde.Substrate.next_hop state.routing ~current:!index
            ~key:(Id.routing_key id)
        with
        | Some n -> Some state.addrs.(n)
        | None -> None);
    successor_addr =
      (fun () ->
        let s = Chord.Oracle.successor_of state.oracle !index in
        if s = !index then None else Some state.addrs.(s));
    predecessor_addr =
      (fun () ->
        let p = Chord.Oracle.predecessor_of state.oracle !index in
        if p = !index then None else Some state.addrs.(p));
  }

(* A server on the shared byte net: its endpoint decodes what arrives
   into the server, and its sends go out encoded from that endpoint. *)
let attach ~engine ~net ~view ~site ~id ?config ~metrics ~tracer () =
  let addr = Net.register net ~site (fun ~src:_ _ -> ()) in
  let server =
    Server.create ~engine ~addr
      ~emit:(fun ~dst msg -> Net.send net ~src:addr ~dst (Codec.encode msg))
      ~view ~site ~id ?config ~metrics ~tracer ()
  in
  Net.set_handler net addr
    (Telemetry.receiver net (Server.handle_message server));
  server

let create ?(seed = 1) ?model ?(uniform_latency_ms = 5.)
    ?(substrate = Koorde.Substrate.Chord Chord.Routing.Default) ?server_config
    ?(metrics = Obs.Metrics.default) ?(tracer = Obs.Trace.disabled)
    ?(spans = Obs.Trace.disabled) ~n_servers () =
  if n_servers <= 0 then invalid_arg "Deployment.create: need servers";
  let rng = Rng.of_int seed in
  let engine = Sim.Engine.create () in
  let latency =
    match model with
    | Some m -> fun a b -> if a = b then 0. else Topology.Model.latency m a b
    | None -> fun a b -> if a = b then 0. else uniform_latency_ms
  in
  let net = Net.create ~metrics engine ~rng:(Rng.split rng) ~latency () in
  Telemetry.install_net_tracer ~tracer net;
  let oracle = Chord.Oracle.random (Rng.split rng) ~n:n_servers in
  let sites =
    match model with
    | Some m -> Topology.Model.place_servers (Rng.split rng) m ~count:n_servers
    | None -> Array.make n_servers 0
  in
  let routing = make_routing ~substrate ~oracle ~latency ~ring_sites:sites in
  let state = { oracle; routing; addrs = Array.make n_servers (-1) } in
  let ring =
    Array.init n_servers (fun i ->
        let index = ref i in
        let server =
          attach ~engine ~net ~view:(view_for state index) ~site:sites.(i)
            ~id:(Chord.Oracle.id oracle i)
            ?config:server_config ~metrics ~tracer ()
        in
        state.addrs.(i) <- Server.addr server;
        { server; index })
  in
  {
    engine;
    net;
    rng;
    model;
    latency;
    substrate;
    server_config;
    metrics;
    tracer;
    spans;
    state;
    ring;
    all_servers = Array.map (fun m -> m.server) ring;
  }

let engine t = t.engine
let net t = t.net
let rng t = t.rng
let now t = Sim.Engine.now t.engine
let run_for t d = Sim.Engine.run_for t.engine d

let oracle t = t.state.oracle
let servers t = t.all_servers
let server t i = t.ring.(i).server
let ring_size t = Array.length t.ring

let responsible_server t id =
  t.ring.(Chord.Oracle.responsible t.state.oracle id).server

let kill t server =
  Server.kill server;
  Net.set_down t.net (Server.addr server)

let kill_server t i = kill t t.ring.(i).server

(* Install the converged ring over [members], exactly what Chord
   stabilization would arrive at after a membership change. *)
let reconverge t members =
  Array.sort
    (fun a b -> Id.compare (Server.id a.server) (Server.id b.server))
    members;
  let oracle =
    Chord.Oracle.create (Array.map (fun m -> Server.id m.server) members)
  in
  let ring_sites =
    Array.map (fun m -> Net.site t.net (Server.addr m.server)) members
  in
  let routing =
    make_routing ~substrate:t.substrate ~oracle ~latency:t.latency ~ring_sites
  in
  t.state.oracle <- oracle;
  t.state.routing <- routing;
  t.state.addrs <- Array.map (fun m -> Server.addr m.server) members;
  Array.iteri (fun idx m -> m.index := idx) members;
  t.ring <- members

let fail_server t i =
  if Array.length t.ring <= 1 then
    invalid_arg "Deployment.fail_server: cannot fail the last server";
  kill t t.ring.(i).server;
  reconverge t
    (Array.of_list
       (List.filter
          (fun m -> Server.is_alive m.server)
          (Array.to_list t.ring)))

let add_server t ?site ?id () =
  let site =
    match (site, t.model) with
    | Some s, _ -> s
    | None, Some m -> Topology.Model.random_host_site t.rng m
    | None, None -> 0
  in
  let rec fresh_id () =
    let id = Id.routing_key (Id.random t.rng) in
    if Chord.Oracle.index_of t.state.oracle id = None then id else fresh_id ()
  in
  let id = match id with Some i -> i | None -> fresh_id () in
  (* The newcomer's arc is empty until owners refresh their triggers into
     it — exactly the paper's incremental-deployment story (Sec. IV-H). *)
  let index = ref 0 in
  let server =
    attach ~engine:t.engine ~net:t.net ~view:(view_for t.state index) ~site
      ~id ?config:t.server_config ~metrics:t.metrics ~tracer:t.tracer ()
  in
  t.all_servers <- Array.append t.all_servers [| server |];
  reconverge t (Array.append t.ring [| { server; index } |]);
  server

let new_host t ?site ?config ?(n_gateways = 3) () =
  let site =
    match (site, t.model) with
    | Some s, _ -> s
    | None, Some m -> Topology.Model.random_host_site t.rng m
    | None, None -> 0
  in
  let live =
    Array.to_list t.ring
    |> List.filter (fun m -> Server.is_alive m.server)
    |> List.map (fun m -> Server.addr m.server)
  in
  if live = [] then invalid_arg "Deployment.new_host: no live servers";
  let arr = Array.of_list live in
  Rng.shuffle t.rng arr;
  let gateways =
    Array.to_list (Array.sub arr 0 (min n_gateways (Array.length arr)))
  in
  Host.create ~engine:t.engine ~net:t.net ~rng:(Rng.split t.rng) ~site
    ~gateways ?config ~tracer:t.tracer ~spans:t.spans ()

let total_triggers t =
  Array.fold_left
    (fun acc m ->
      if Server.is_alive m.server then
        acc + Trigger_table.size (Server.triggers m.server)
      else acc)
    0 t.ring

let site_latency t a b = t.latency a b

let sample_nearby_id t host ~samples =
  if samples < 1 then invalid_arg "Deployment.sample_nearby_id: samples < 1";
  let host_site = Host.site host in
  let best = ref None in
  for _ = 1 to samples do
    let id = Id.random t.rng in
    let server = responsible_server t id in
    let rtt = 2. *. t.latency host_site (Net.site t.net (Server.addr server)) in
    match !best with
    | Some (_, d) when d <= rtt -> ()
    | _ -> best := Some (id, rtt)
  done;
  match !best with Some (id, _) -> id | None -> assert false
