(* Every member runs as [bin/i3d] does: one [I3.Engine] behind one
   [Driver] on one [Transport.Sim] endpoint ([Sim_endpoint]).  [Engine]
   is simnet's scheduler; the node is [I3.Engine]. *)

type member = {
  endpoint : Sim_endpoint.t;
  site : int;
  id : Id.t;
  mutable driver : Driver.t;  (* a fresh engine and driver on every restart *)
  mutable alive : bool;
  mutable wake : float option;  (* the one pending scheduler wake-up *)
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  net : string Net.t;
  mutable members : member list;  (* newest first *)
  server_config : I3.Server.config option;
  protocol_config : Chord.Protocol.config;
  metrics : Obs.Metrics.t;
  tracer : Obs.Trace.t;
  spans : Obs.Trace.t;
  substrate : Koorde.Substrate.spec option;
  (* Membership epoch: bumped on join/kill/restart so the Koorde router
     below rebuilds its oracle lazily instead of on every packet. *)
  mutable generation : int;
  mutable koorde_cache :
    (int * Chord.Oracle.t * Koorde.Substrate.t * I3.Packet.addr array) option;
}

let fast_protocol_config =
  {
    Chord.Protocol.default_config with
    Chord.Protocol.stabilize_period = 2_000.;
    fix_fingers_period = 1_000.;
    fingers_per_round = 64;
    rpc_timeout = 500.;
  }

let create ?(seed = 1) ?(uniform_latency_ms = 5.) ?server_config
    ?(protocol_config = fast_protocol_config)
    ?(metrics = Obs.Metrics.default) ?(tracer = Obs.Trace.disabled)
    ?(spans = Obs.Trace.disabled) ?substrate () =
  let rng = Rng.of_int seed in
  let engine = Engine.create () in
  let latency a b = if a = b then 0. else uniform_latency_ms in
  let net = Net.create ~metrics engine ~rng:(Rng.split rng) ~latency () in
  (* Draw a second split too, so member ids and host draws stay on the
     stream the seeded scenarios and the bench baseline were set on. *)
  ignore (Rng.split rng);
  I3.Telemetry.install_net_tracer ~tracer net;
  {
    engine;
    rng;
    net;
    members = [];
    server_config;
    protocol_config;
    metrics;
    tracer;
    spans;
    substrate;
    generation = 0;
    koorde_cache = None;
  }

let engine t = t.engine
let tracer t = t.tracer
let metrics t = t.metrics
let spans t = t.spans
let ring_label _ = Chord.Protocol.ring_label
let run_for t d = Engine.run_for t.engine d
let now t = Engine.now t.engine
let bump_generation t = t.generation <- t.generation + 1
let addr m = Sim_endpoint.local_addr m.endpoint
let node m = Driver.engine m.driver
let server_of m = I3.Engine.server (node m)
let live_members t = List.filter (fun m -> m.alive) t.members

(* --- the wake-up --- *)

(* After each driver step, keep one scheduler event at the deadline the
   step announced.  An earlier pending wake-up already covers it: its
   [tick] steps when a timer is due and re-arms from there. *)
let rec arm t m =
  match (Driver.next_due m.driver, m.wake) with
  | None, _ -> ()
  | Some due, Some pending when pending <= due -> ()
  | Some due, _ ->
      m.wake <- Some due;
      Engine.schedule_at t.engine ~time:due (fun () ->
          if m.alive && m.wake = Some due then begin
            m.wake <- None;
            Driver.tick m.driver ~now:(now t);
            arm t m
          end)

(* --- Koorde forwarding --- *)

(* The Koorde router over the current live membership, rebuilt only when
   the membership epoch moved.  During convergence its view (like any
   node's) may briefly disagree with protocol-level ownership; packets
   then take an extra hop or are dropped and repaired by soft state,
   exactly as with stale Chord fingers. *)
let koorde_router t spec =
  match t.koorde_cache with
  | Some (g, oracle, r, addrs) when g = t.generation -> Some (oracle, r, addrs)
  | _ -> (
      match Array.of_list (live_members t) with
      | [||] -> None
      | live ->
          (* Sorted by id, the members line up with the oracle's ring
             indices. *)
          Array.sort (fun a b -> Id.compare a.id b.id) live;
          let oracle = Chord.Oracle.create (Array.map (fun m -> m.id) live) in
          let addrs = Array.map addr live in
          let r = Koorde.Substrate.create oracle spec in
          t.koorde_cache <- Some (t.generation, oracle, r, addrs);
          Some (oracle, r, addrs))

(* Over Koorde, forwarding follows de Bruijn hops while ownership — and
   therefore trigger placement — stays with the engine's live Chord
   node.  Chord specs need nothing: the node's own fingers already are
   the substrate. *)
let install_substrate t m =
  match t.substrate with
  | Some (Koorde.Substrate.Koorde _ as spec) ->
      let server = server_of m in
      let chord = I3.Server.view server in
      let next_hop id =
        match koorde_router t spec with
        | Some (oracle, r, addrs) -> (
            match Chord.Oracle.index_of oracle m.id with
            | Some current ->
                Option.map
                  (fun n -> addrs.(n))
                  (Koorde.Substrate.next_hop r ~current
                     ~key:(Id.routing_key id))
            (* Not in the live snapshot (e.g. mid-restart): fall back to
               the node's own protocol view. *)
            | None -> chord.next_hop id)
        | None -> chord.next_hop id
      in
      I3.Server.set_view server { chord with next_hop }
  | Some (Koorde.Substrate.Chord _) | None -> ()

(* --- membership --- *)

(* A member's process: a fresh engine joining by address through a
   random live member, or founding the ring when there is none.  Every
   other live member is a backup contact: one that dies before it
   answers must not strand the joiner alone, owning the whole id
   space.  Its driver carries the server's [instance] label, so a kill
   removes the driver's series with the server's. *)
let spawn t ~endpoint ~id ~site =
  let join =
    match live_members t with
    | [] -> []
    | live ->
        let via = Rng.choose t.rng (Array.of_list live) in
        addr via
        :: List.filter_map
             (fun m -> if m == via then None else Some (addr m))
             live
  in
  let node =
    I3.Engine.create ~seed:(Rng.bits62 t.rng)
      ~addr:(Sim_endpoint.local_addr endpoint)
      ~id ~join ~site ?config:t.server_config ~chord_config:t.protocol_config
      ~metrics:t.metrics ~tracer:t.tracer ~spans:t.spans ()
  in
  Driver.create ~metrics:t.metrics
    ~instance:(I3.Server.instance_label (I3.Engine.server node))
    ~send:
      (List.iter (fun (dst, bytes) -> Sim_endpoint.send endpoint ~dst bytes))
    node

(* The new process's first tick starts its clock and timers now. *)
let start t m =
  m.alive <- true;
  m.wake <- None;
  install_substrate t m;
  bump_generation t;
  Driver.tick m.driver ~now:(now t);
  arm t m

let add_server t ?(site = 0) () =
  let endpoint = Sim_endpoint.attach t.net ~site in
  let id = Id.routing_key (Id.random t.rng) in
  let driver = spawn t ~endpoint ~id ~site in
  let m = { endpoint; site; id; driver; alive = true; wake = None } in
  Sim_endpoint.set_handler endpoint (fun ~src bytes ->
      Driver.on_datagram m.driver ~now:(now t) ~src bytes;
      arm t m);
  t.members <- m :: t.members;
  start t m;
  server_of m

let member_of t server =
  match List.find_opt (fun m -> addr m = I3.Server.addr server) t.members with
  | Some m -> m
  | None -> invalid_arg "Dynamic: unknown server"

(* [Server.kill] drops the member's series, its driver's among them, so
   its decode errors first join the net's own: a codec fault that only
   a dead member saw stays counted. *)
let kill_server t server =
  let m = member_of t server in
  if m.alive then begin
    let errors instance =
      Obs.Metrics.counter t.metrics
        ~labels:[ ("instance", instance); ("proto", "frame") ]
        "wire.decode_errors"
    in
    let server = server_of m in
    let dying = errors (I3.Server.instance_label server) in
    Obs.Metrics.(incr ~by:(counter_value dying) (errors (Net.label t.net)));
    m.alive <- false;
    I3.Server.kill server;
    Net.set_down t.net (addr m);
    bump_generation t
  end

(* Fail-stop recovery: a new process at the same address with empty
   soft state, rejoining the ring by address; hosts re-insert their
   triggers on refresh (Sec. IV-C). *)
let restart_server t server =
  let m = member_of t server in
  if not m.alive then begin
    Net.set_up t.net (addr m);
    m.driver <- spawn t ~endpoint:m.endpoint ~id:m.id ~site:m.site;
    start t m
  end

let servers t = List.map server_of (live_members t)

let owners_of t id =
  live_members t
  |> List.filter (fun m ->
         Chord.Protocol.owns (I3.Engine.chord (node m)) (Id.routing_key id))
  |> List.map server_of

let new_host t ?(site = 0) ?config ?(n_gateways = 3) () =
  let live = Array.of_list (List.map addr (live_members t)) in
  if Array.length live = 0 then invalid_arg "Dynamic.new_host: no live servers";
  Rng.shuffle t.rng live;
  let gateways =
    Array.to_list (Array.sub live 0 (min n_gateways (Array.length live)))
  in
  I3.Host.create ~engine:t.engine ~net:t.net ~rng:(Rng.split t.rng) ~site
    ~gateways ?config ~tracer:t.tracer ~spans:t.spans ()

(* --- fault injection --- *)

let all_servers t = List.rev_map server_of t.members

let nth_server t i =
  match List.nth_opt (all_servers t) i with
  | Some s -> s
  | None -> invalid_arg "Dynamic.nth_server: no such server index"

let inject t schedule =
  let crash i = kill_server t (nth_server t i)
  and restart i = restart_server t (nth_server t i) in
  Faults.install t.engine (Net.driver ~crash ~restart t.net) schedule

let net t = t.net
let net_stats t = Net.stats t.net
