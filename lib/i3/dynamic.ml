(* Every member is one [Engine] — the very node [bin/i3d] runs — stepped
   by the small driver below: frames arriving on the simulated nets
   become engine events, effects go back out onto those nets, and each
   [Set_timer] becomes one pending scheduler event. *)

type member = {
  addr : Packet.addr;  (* data-plane endpoint: the engine's address *)
  ctrl : Net.addr;  (* control-plane endpoint carrying its Chord RPCs *)
  site : int;
  id : Id.t;
  mutable node : Engine.t;  (* a fresh one on every restart *)
  mutable alive : bool;
  mutable wake : float option;  (* the one pending [Set_timer] wake-up *)
}

type t = {
  engine : Sim.Engine.t;
  rng : Rng.t;
  data : Message.t Net.t;
  control : Chord.Protocol.msg Net.t;
  (* The address directory: Chord messages name peers by data address,
     the control plane is a second socket per member. *)
  by_addr : (Packet.addr, member) Hashtbl.t;
  by_ctrl : (Net.addr, member) Hashtbl.t;
  mutable members : member list;  (* newest first *)
  server_config : Server.config option;
  protocol_config : Chord.Protocol.config;
  metrics : Obs.Metrics.t;
  tracer : Obs.Trace.t;
  spans : Obs.Trace.t;
  substrate : Koorde.Substrate.spec option;
  (* Membership epoch: bumped on join/kill/restart so the Koorde router
     below rebuilds its oracle lazily instead of on every packet. *)
  mutable generation : int;
  mutable koorde_cache : (int * Koorde.Routing.t * Packet.addr array) option;
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
    ?(spans = Obs.Trace.disabled) ?(wire_roundtrip = true) ?substrate () =
  let rng = Rng.of_int seed in
  let engine = Sim.Engine.create () in
  let latency a b = if a = b then 0. else uniform_latency_ms in
  let control = Net.create ~metrics engine ~rng:(Rng.split rng) ~latency () in
  if wire_roundtrip then Chord.Codec.harden ~metrics control;
  let data = Net.create ~metrics engine ~rng:(Rng.split rng) ~latency () in
  if wire_roundtrip then Codec.harden ~metrics data;
  Telemetry.install_net_tracer ~tracer data;
  {
    engine;
    rng;
    data;
    control;
    by_addr = Hashtbl.create 32;
    by_ctrl = Hashtbl.create 32;
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
let run_for t d = Sim.Engine.run_for t.engine d
let now t = Sim.Engine.now t.engine
let bump_generation t = t.generation <- t.generation + 1
let server_of m = Engine.server m.node
let live_members t = List.filter (fun m -> m.alive) t.members

(* --- the driver --- *)

let rec step t m event =
  if m.alive then
    List.iter (apply t m) (Engine.step m.node ~now:(now t) event)

and apply t m = function
  | Engine.Send (dst, msg) -> Net.send t.data ~src:m.addr ~dst msg
  | Engine.Deliver { dst; stack; payload; trace } ->
      Net.send t.data ~src:m.addr ~dst
        (Message.Deliver { stack; payload; trace })
  | Engine.Chord_send (dst, msg) -> (
      match Hashtbl.find_opt t.by_addr dst with
      | Some peer -> Net.send t.control ~src:m.ctrl ~dst:peer.ctrl msg
      | None -> () (* nobody listens there: the datagram is lost *))
  | Engine.Set_timer due -> (
      (* An earlier pending wake-up already covers [due]: when it fires,
         the Tick re-announces the next deadline. *)
      match m.wake with
      | Some pending when pending <= due -> ()
      | _ ->
          m.wake <- Some due;
          Sim.Engine.schedule_at t.engine ~time:due (fun () ->
              if m.wake = Some due then begin
                m.wake <- None;
                step t m Engine.Tick
              end))

(* --- Koorde forwarding --- *)

(* The Koorde router over the current live membership, rebuilt only when
   the membership epoch moved.  During convergence its view (like any
   node's) may briefly disagree with protocol-level ownership; packets
   then take an extra hop or are dropped and repaired by soft state,
   exactly as with stale Chord fingers. *)
let koorde_router t ~degree =
  match t.koorde_cache with
  | Some (g, r, addrs) when g = t.generation -> Some (r, addrs)
  | _ -> (
      match Array.of_list (live_members t) with
      | [||] -> None
      | live ->
          (* Sorted by id, the members line up with the oracle's ring
             indices. *)
          Array.sort (fun a b -> Id.compare a.id b.id) live;
          let oracle = Chord.Oracle.create (Array.map (fun m -> m.id) live) in
          let addrs = Array.map (fun m -> m.addr) live in
          let r = Koorde.Routing.create ~degree oracle in
          t.koorde_cache <- Some (t.generation, r, addrs);
          Some (r, addrs))

(* Over Koorde, forwarding follows de Bruijn hops while ownership — and
   therefore trigger placement — stays with the engine's live Chord
   node.  Chord specs need nothing: the node's own fingers already are
   the substrate. *)
let install_substrate t m =
  match t.substrate with
  | Some (Koorde.Substrate.Koorde { degree }) ->
      let server = server_of m in
      let chord = Server.view server in
      let next_hop id =
        match koorde_router t ~degree with
        | Some (r, addrs) -> (
            match Chord.Oracle.index_of (Koorde.Routing.oracle r) m.id with
            | Some current ->
                Option.map
                  (fun n -> addrs.(n))
                  (Koorde.Routing.next_hop r ~current ~key:(Id.routing_key id))
            (* Not in the live snapshot (e.g. mid-restart): fall back to
               the node's own protocol view. *)
            | None -> chord.next_hop id)
        | None -> chord.next_hop id
      in
      Server.set_view server { chord with next_hop }
  | Some (Koorde.Substrate.Chord _) | None -> ()

(* --- membership --- *)

(* A member's process: a fresh engine joining by address through a
   random live member, or founding the ring when there is none.  Every
   other live member is a backup contact: one that dies before it
   answers must not strand the joiner alone, owning the whole id
   space. *)
let spawn t ~addr ~id ~site =
  let join =
    match live_members t with
    | [] -> []
    | live ->
        let via = Rng.choose t.rng (Array.of_list live) in
        via.addr
        :: List.filter_map
             (fun m -> if m == via then None else Some m.addr)
             live
  in
  Engine.create ~seed:(Rng.bits62 t.rng) ~addr ~id ~join ~site
    ?config:t.server_config ~chord_config:t.protocol_config ~metrics:t.metrics
    ~tracer:t.tracer ~spans:t.spans ()

(* Step the new process once, so its clock and timers start now. *)
let start t m =
  m.alive <- true;
  m.wake <- None;
  install_substrate t m;
  bump_generation t;
  step t m Engine.Tick

let add_server t ?(site = 0) () =
  let addr = Net.register t.data ~site (fun ~src:_ _ -> ()) in
  let ctrl = Net.register t.control ~site (fun ~src:_ _ -> ()) in
  let id = Id.routing_key (Id.random t.rng) in
  let node = spawn t ~addr ~id ~site in
  let m = { addr; ctrl; site; id; node; alive = true; wake = None } in
  Net.set_handler t.data addr (fun ~src msg ->
      step t m (Engine.Frame { src; frame = Engine.I3 msg }));
  Net.set_handler t.control ctrl (fun ~src msg ->
      match Hashtbl.find_opt t.by_ctrl src with
      | Some peer ->
          step t m (Engine.Frame { src = peer.addr; frame = Engine.Chord msg })
      | None -> ());
  Hashtbl.replace t.by_addr addr m;
  Hashtbl.replace t.by_ctrl ctrl m;
  t.members <- m :: t.members;
  start t m;
  server_of m

let member_of t server =
  match Hashtbl.find_opt t.by_addr (Server.addr server) with
  | Some m -> m
  | None -> invalid_arg "Dynamic: unknown server"

let kill_server t server =
  let m = member_of t server in
  if m.alive then begin
    m.alive <- false;
    Server.kill (server_of m);
    Net.set_down t.data m.addr;
    Net.set_down t.control m.ctrl;
    bump_generation t
  end

(* Fail-stop recovery: a new process at the same addresses with empty
   soft state, rejoining the ring by address; hosts re-insert their
   triggers on refresh (Sec. IV-C). *)
let restart_server t server =
  let m = member_of t server in
  if not m.alive then begin
    Net.set_up t.data m.addr;
    Net.set_up t.control m.ctrl;
    m.node <- spawn t ~addr:m.addr ~id:m.id ~site:m.site;
    start t m
  end

let servers t = List.map server_of (live_members t)

let owners_of t id =
  live_members t
  |> List.filter (fun m ->
         Chord.Protocol.owns (Engine.chord m.node) (Id.routing_key id))
  |> List.map server_of

let new_host t ?(site = 0) ?config ?(n_gateways = 3) () =
  let live = Array.of_list (List.map (fun m -> m.addr) (live_members t)) in
  if Array.length live = 0 then invalid_arg "Dynamic.new_host: no live servers";
  Rng.shuffle t.rng live;
  let gateways =
    Array.to_list (Array.sub live 0 (min n_gateways (Array.length live)))
  in
  Host.create ~engine:t.engine ~net:t.data ~rng:(Rng.split t.rng) ~site
    ~gateways ?config ~tracer:t.tracer ~spans:t.spans ()

let total_triggers t =
  List.fold_left
    (fun acc s -> acc + Trigger_table.size (Server.triggers s))
    0 (servers t)

(* --- fault injection --- *)

let all_servers t = List.rev_map server_of t.members

let nth_server t i =
  match List.nth_opt (all_servers t) i with
  | Some s -> s
  | None -> invalid_arg "Dynamic.nth_server: no such server index"

let fault_driver t =
  let crash i = kill_server t (nth_server t i)
  and restart i = restart_server t (nth_server t i) in
  Faults.combine
    [ Net.driver ~crash ~restart t.data; Net.driver t.control ]

let inject t schedule = Faults.install t.engine (fault_driver t) schedule
let data_net_stats t = Net.stats t.data
let control_net_stats t = Net.stats t.control
