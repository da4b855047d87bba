(* The paper's static-ring simulator: [Dynamic]'s members ([Member]),
   each a static [I3.Engine] viewing one oracle ring. *)

(* A converged ring: its oracle, classic Chord routing over it, and the
   address at each ring index. *)
type ring = {
  oracle : Chord.Oracle.t;
  routing : Chord.Routing.t;
  addrs : int array;
}

type t = {
  w : Member.world;
  model : Topology.Model.t option;
  latency : int -> int -> float;
  (* The converged ring every server's view reads, so one [reconverge]
     updates every view at once. *)
  mutable ring : ring;
  mutable members : Member.t array; (* current ring order *)
  mutable all_servers : I3.Server.t array; (* creation order, incl. dead ones *)
}

let is_alive m = I3.Server.is_alive (Member.server m)

let make_ring oracle addrs =
  { oracle; routing = Chord.Routing.create oracle Chord.Routing.Default; addrs }

(* The next hop from the server [self] toward [id]'s owner over [ring];
   [None] when [self] owns it or is not on the ring. *)
let next_hop ring ~self id =
  Option.bind (Chord.Oracle.index_of ring.oracle self) (fun current ->
      Option.map
        (fun n -> ring.addrs.(n))
        (Chord.Routing.next_hop ring.routing ~current ~key:(Id.routing_key id)))

(* The view of server [self], at whatever index the oracle holds it. *)
let view_for t self =
  let index () = Option.get (Chord.Oracle.index_of t.ring.oracle self) in
  let neighbour pick =
    let i = index () in
    let n = pick t.ring.oracle i in
    if n = i then None else Some t.ring.addrs.(n)
  in
  {
    I3.Server.owns =
      (fun id -> Chord.Oracle.responsible t.ring.oracle id = index ());
    next_hop = (fun id -> next_hop t.ring ~self id);
    successor_addr = (fun () -> neighbour Chord.Oracle.successor_of);
    predecessor_addr = (fun () -> neighbour Chord.Oracle.predecessor_of);
  }

(* A running static member at [site]. *)
let attach t ~site ~id =
  Member.create t.w ~site (fun addr ->
      I3.Engine.create_static ~addr ~id ~view:(view_for t id) ~site
        ?config:t.w.server_config ~metrics:t.w.metrics ~tracer:t.w.tracer ())

let create ?(seed = 1) ?model ?server_config ?(metrics = Obs.Metrics.default)
    ?(tracer = Obs.Trace.disabled) ?(spans = Obs.Trace.disabled) ~n_servers () =
  if n_servers <= 0 then invalid_arg "Deployment.create: need servers";
  let latency =
    match model with
    | Some m -> fun a b -> if a = b then 0. else Topology.Model.latency m a b
    | None -> Member.flat_latency
  in
  let w =
    Member.world ~seed ~latency ?server_config ~metrics ~tracer ~spans ()
  in
  let oracle = Chord.Oracle.random (Rng.split w.rng) ~n:n_servers in
  let sites =
    match model with
    | Some m ->
        Topology.Model.place_servers (Rng.split w.rng) m ~count:n_servers
    | None -> Array.make n_servers 0
  in
  let t =
    {
      w;
      model;
      latency;
      ring = make_ring oracle [||];
      members = [||];
      all_servers = [||];
    }
  in
  t.members <-
    Array.mapi
      (fun i site -> attach t ~site ~id:(Chord.Oracle.id oracle i))
      sites;
  t.ring <- { t.ring with addrs = Array.map Member.addr t.members };
  t.all_servers <- Array.map Member.server t.members;
  t

let engine t = t.w.engine
let net t = t.w.net
let rng t = t.w.rng
let now t = Engine.now t.w.engine
let run_for t d = Engine.run_for t.w.engine d
let oracle t = t.ring.oracle
let servers t = t.all_servers
let server t i = Member.server t.members.(i)
let ring_size t = Array.length t.members

let responsible_server t id =
  Member.server t.members.(Chord.Oracle.responsible t.ring.oracle id)

let kill_server t i = Member.kill t.members.(i)

(* Install the converged ring over [members], exactly what Chord
   stabilization would arrive at after a membership change. *)
let reconverge t members =
  let id m = I3.Engine.id (Member.node m) in
  Array.sort (fun a b -> Id.compare (id a) (id b)) members;
  t.ring <-
    make_ring
      (Chord.Oracle.create (Array.map id members))
      (Array.map Member.addr members);
  t.members <- members

let fail_server t i =
  if Array.length t.members <= 1 then
    invalid_arg "Deployment.fail_server: cannot fail the last server";
  kill_server t i;
  reconverge t (Array.of_list (List.filter is_alive (Array.to_list t.members)))

let pick_site t site =
  match (site, t.model) with
  | Some s, _ -> s
  | None, Some m -> Topology.Model.random_host_site t.w.rng m
  | None, None -> 0

let add_server t ?site ?id () =
  let site = pick_site t site in
  let rec fresh_id () =
    let id = Id.routing_key (Id.random t.w.rng) in
    if Chord.Oracle.index_of t.ring.oracle id = None then id else fresh_id ()
  in
  let id = match id with Some i -> i | None -> fresh_id () in
  (* The newcomer's arc is empty until owners refresh their triggers into
     it — exactly the paper's incremental-deployment story (Sec. IV-H). *)
  let m = attach t ~site ~id in
  t.all_servers <- Array.append t.all_servers [| Member.server m |];
  reconverge t (Array.append t.members [| m |]);
  Member.server m

let new_host t ?site ?config ?n_gateways () =
  let site = pick_site t site in
  Array.to_list t.members |> List.filter is_alive |> List.map Member.addr
  |> Member.new_host t.w ~site ?config ?n_gateways

let total_triggers t =
  Array.fold_left
    (fun acc m ->
      if is_alive m then
        acc + I3.Trigger_table.size (I3.Server.triggers (Member.server m))
      else acc)
    0 t.members

let site_latency t a b = t.latency a b

let sample_nearby_id t host ~samples =
  if samples < 1 then invalid_arg "Deployment.sample_nearby_id: samples < 1";
  let host_site = Host.site host in
  let best = ref None in
  for _ = 1 to samples do
    let id = Id.random t.w.rng in
    let server = responsible_server t id in
    let rtt =
      2. *. t.latency host_site (Net.site t.w.net (I3.Server.addr server))
    in
    match !best with
    | Some (_, d) when d <= rtt -> ()
    | _ -> best := Some (id, rtt)
  done;
  match !best with Some (id, _) -> id | None -> assert false
