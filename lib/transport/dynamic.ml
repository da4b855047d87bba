(* Every member runs as [bin/i3d] does: one live [I3.Engine] behind one
   [Driver] on one [Transport.Sim] endpoint ([Member]).  [Engine] is
   simnet's scheduler; the node is [I3.Engine]. *)

type t = {
  w : Member.world;
  mutable members : Member.t list;  (* newest first *)
  protocol_config : Chord.Protocol.config;
  substrate : Koorde.Substrate.spec option;
  (* Membership epoch: bumped on join/kill/restart so the Koorde router
     below rebuilds its oracle lazily instead of on every packet. *)
  mutable generation : int;
  mutable koorde_cache : (int * Member.ring) option;
}

let fast_protocol_config =
  {
    Chord.Protocol.default_config with
    Chord.Protocol.stabilize_period = 2_000.;
    fix_fingers_period = 1_000.;
    fingers_per_round = 64;
    rpc_timeout = 500.;
  }

let create ?(seed = 1) ?server_config
    ?(protocol_config = fast_protocol_config)
    ?(metrics = Obs.Metrics.default) ?(tracer = Obs.Trace.disabled)
    ?(spans = Obs.Trace.disabled) ?substrate () =
  let w =
    Member.world ~seed ~latency:Member.flat_latency ?server_config ~metrics
      ~tracer ~spans ()
  in
  (* Draw a second split too, so member ids and host draws stay on the
     stream the seeded scenarios and the bench baseline were set on. *)
  ignore (Rng.split w.rng);
  {
    w;
    members = [];
    protocol_config;
    substrate;
    generation = 0;
    koorde_cache = None;
  }

let engine t = t.w.engine
let tracer t = t.w.tracer
let metrics t = t.w.metrics
let spans t = t.w.spans
let run_for t d = Engine.run_for t.w.engine d
let now t = Engine.now t.w.engine
let bump_generation t = t.generation <- t.generation + 1
let addr = Member.addr
let id m = I3.Engine.id (Member.node m)
let live_members t = List.filter Member.alive t.members

(* --- Koorde forwarding --- *)

(* The Koorde router over the current live membership, rebuilt only when
   the membership epoch moved.  During convergence its view (like any
   node's) may briefly disagree with protocol-level ownership; packets
   then take an extra hop or are dropped and repaired by soft state,
   exactly as with stale Chord fingers. *)
let koorde_router t spec =
  match t.koorde_cache with
  | Some (g, ring) when g = t.generation -> Some ring
  | _ -> (
      match Array.of_list (live_members t) with
      | [||] -> None
      | live ->
          (* Sorted by id, the members line up with the oracle's ring
             indices. *)
          Array.sort (fun a b -> Id.compare (id a) (id b)) live;
          let oracle = Chord.Oracle.create (Array.map id live) in
          let routing = Koorde.Substrate.create oracle spec in
          let ring = { Member.oracle; routing; addrs = Array.map addr live } in
          t.koorde_cache <- Some (t.generation, ring);
          Some ring)

(* Over Koorde, forwarding follows de Bruijn hops while ownership — and
   therefore trigger placement — stays with the engine's live Chord
   node.  Chord specs need nothing: the node's own fingers already are
   the substrate. *)
let install_substrate t node =
  match t.substrate with
  | Some (Koorde.Substrate.Koorde _ as spec) ->
      let self = I3.Engine.id node in
      let server = I3.Engine.server node in
      let chord = I3.Server.view server in
      let next_hop id =
        match
          Option.bind (koorde_router t spec) (fun r ->
              Member.next_hop r ~self id)
        with
        | Some hop -> hop
        (* Not in the live snapshot (e.g. mid-restart): fall back to the
           node's own protocol view. *)
        | None -> chord.next_hop id
      in
      I3.Server.set_view server { chord with next_hop }
  | Some (Koorde.Substrate.Chord _) | None -> ()

(* --- membership --- *)

(* A member's process: a fresh engine joining by address through a
   random live member, or founding the ring when there is none.  Every
   other live member is a backup contact: one that dies before it
   answers must not strand the joiner alone, owning the whole id
   space. *)
let spawn t ~id addr =
  let site = Net.site t.w.net addr in
  let join =
    match live_members t with
    | [] -> []
    | live ->
        let via = Rng.choose t.w.rng (Array.of_list live) in
        Member.addr via
        :: List.filter_map
             (fun m -> if m == via then None else Some (Member.addr m))
             live
  in
  let node =
    I3.Engine.create ~seed:(Rng.bits62 t.w.rng) ~addr ~id ~join ~site
      ?config:t.w.server_config ~chord_config:t.protocol_config
      ~metrics:t.w.metrics ~tracer:t.w.tracer ~spans:t.w.spans ()
  in
  install_substrate t node;
  node

let add_server t ?(site = 0) () =
  let id = Id.routing_key (Id.random t.w.rng) in
  let m = Member.create t.w ~site (spawn t ~id) in
  t.members <- m :: t.members;
  bump_generation t;
  Member.server m

let member_of t server =
  match List.find_opt (fun m -> addr m = I3.Server.addr server) t.members with
  | Some m -> m
  | None -> invalid_arg "Dynamic: unknown server"

let kill_server t server =
  Member.kill (member_of t server);
  bump_generation t

(* Fail-stop recovery: a new process at the same address with empty
   soft state, rejoining the ring by address; hosts re-insert their
   triggers on refresh (Sec. IV-C). *)
let restart_server t server =
  let m = member_of t server in
  if not (Member.alive m) then begin
    let node = spawn t ~id:(id m) (addr m) in
    bump_generation t;
    Member.restart m node
  end

let servers t = List.map Member.server (live_members t)

let owners_of t id =
  List.filter (fun s -> (I3.Server.view s).I3.Server.owns id) (servers t)

let new_host t ?(site = 0) ?config ?n_gateways () =
  Member.new_host t.w ~site ?config ?n_gateways
    (List.map addr (live_members t))

let all_servers t = List.rev_map Member.server t.members

let nth_server t i =
  match List.nth_opt (all_servers t) i with
  | Some s -> s
  | None -> invalid_arg "Dynamic.nth_server: no such server index"

let net t = t.w.net
let net_stats t = Net.stats t.w.net
