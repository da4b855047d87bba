(* Every member runs as [bin/i3d] does: one live [I3.Engine] behind one
   [Driver] on one [Transport.Sim] endpoint ([Member]).  [Engine] is
   simnet's scheduler; the node is [I3.Engine]. *)

type t = {
  w : Member.world;
  mutable members : Member.t list;  (* newest first *)
}

let fast_protocol_config =
  {
    Chord.Protocol.default_config with
    Chord.Protocol.stabilize_period = 2_000.;
    fix_fingers_period = 1_000.;
    fingers_per_round = 64;
    rpc_timeout = 500.;
  }

let create ?(seed = 1) ?server_config ?(metrics = Obs.Metrics.default)
    ?(tracer = Obs.Trace.disabled) ?(spans = Obs.Trace.disabled) () =
  let w =
    Member.world ~seed ~latency:Member.flat_latency ?server_config ~metrics
      ~tracer ~spans ()
  in
  (* Draw a second split too, so member ids and host draws stay on the
     stream the seeded scenarios and the bench baseline were set on. *)
  ignore (Rng.split w.rng);
  { w; members = [] }

let engine t = t.w.engine
let tracer t = t.w.tracer
let metrics t = t.w.metrics
let spans t = t.w.spans
let run_for t d = Engine.run_for t.w.engine d
let now t = Engine.now t.w.engine
let addr = Member.addr
let id m = I3.Engine.id (Member.node m)
let live_members t = List.filter Member.alive t.members

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
  I3.Engine.create ~seed:(Rng.bits62 t.w.rng) ~addr ~id ~join ~site
    ?config:t.w.server_config ~chord_config:fast_protocol_config
    ~metrics:t.w.metrics ~tracer:t.w.tracer ~spans:t.w.spans ()

let add_server t ?(site = 0) () =
  let id = Id.routing_key (Id.random t.w.rng) in
  let m = Member.create t.w ~site (spawn t ~id) in
  t.members <- m :: t.members;
  Member.server m

let member_of t server =
  match List.find_opt (fun m -> addr m = I3.Server.addr server) t.members with
  | Some m -> m
  | None -> invalid_arg "Dynamic: unknown server"

let kill_server t server = Member.kill (member_of t server)

(* Fail-stop recovery: a new process at the same address with empty
   soft state, rejoining the ring by address; hosts re-insert their
   triggers on refresh (Sec. IV-C). *)
let restart_server t server =
  let m = member_of t server in
  if not (Member.alive m) then Member.restart m (spawn t ~id:(id m) (addr m))

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
