(** A fully decentralized i3 deployment in simulation.  Every member
    runs as [bin/i3d] does: one live {!I3.Engine} behind one {!Driver},
    on one [Sim] endpoint of a byte net that carries its i3 and Chord
    frames alike; each driver's next deadline is one pending scheduler
    event ({!Deployment} builds its static members from the same core).
    Hosts run the one end-host driver ({!Host}, as [Transport.Client]
    does on a socket) and speak the same bytes, so every hop crosses
    the real wire format, and an undecodable frame counts in
    [wire.decode_errors].  Members join and restart by address, exactly
    as a daemon does with [--join]; nobody consults a global oracle.
    This is the architecture of the paper's prototype (Sec. V-C: "the
    control protocol used to maintain the overlay network is fully
    asynchronous and is implemented on top of UDP") and the
    self-organization story of Secs. IV-C/D/H:

    - a new server joins through any existing one and, within a few
      stabilization rounds, owns an arc and starts accumulating triggers
      as hosts refresh;
    - during convergence, responsibility claims may briefly overlap or
      gap; packets are best-effort and soft state repairs everything;
    - when a server dies, its neighbors detect it via RPC suspicion,
      the ring heals, and the triggers reappear at the successor on the
      owners' next refresh. *)

type t

val create :
  ?seed:int ->
  ?server_config:I3.Server.config ->
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Trace.t ->
  ?spans:Obs.Trace.t ->
  ?substrate:Koorde.Substrate.spec ->
  unit ->
  t
(** An empty deployment.  Endpoints on one site talk at 0 ms, distinct
    sites at 5 ms.  Members run Chord sped up from the paper's 30 s
    periods (2 s stabilization, 1 s finger fixing over 64 fingers, 500 ms
    RPC timeout) so runs converge in little virtual time.
    Counters — including the control ring's — register in [metrics]
    (default {!Obs.Metrics.default}); a live [tracer] turns on
    per-packet tracing on the data plane, every server and every host; a
    live [spans] collector records control-plane operation trees
    (Chord lookups/RPCs/stabilization and host trigger round-trips) as
    {!Obs.Trace.open_op} events, apart from [tracer] so operations
    never evict packet hops.  Each member's {!Driver} series ([driver.*],
    [wire.decode_errors]) carry its server's [instance] label.

    [substrate] selects the data-plane forwarding substrate.  With
    [Koorde {degree}], servers forward along de Bruijn hops computed over
    a lazily rebuilt snapshot of the live membership (refreshed on every
    join/kill/restart); ownership — and therefore trigger placement and
    the conservation invariants — stays with the live Chord protocol's
    successor rule, which the Koorde ring agrees with whenever the
    membership view is converged.  [Chord _] or omitting the parameter
    keeps the protocol's own finger-based forwarding. *)

val engine : t -> Engine.t
(** The simulator's scheduler (simnet's [Engine]). *)

val tracer : t -> Obs.Trace.t
(** The collector passed at creation ({!Obs.Trace.disabled} otherwise). *)

val metrics : t -> Obs.Metrics.t

val spans : t -> Obs.Trace.t
(** The operations collector passed at creation ({!Obs.Trace.disabled}
    otherwise). *)

val run_for : t -> float -> unit
val now : t -> float

val add_server : t -> ?site:int -> unit -> I3.Server.t
(** Start a member: the first bootstraps the ring; later ones join by
    address through a random live member, with every other live member
    as a backup contact, so a contact that dies before answering does
    not strand the joiner.  Its timers start now.
    Returns immediately — the server becomes responsible for its arc as
    stabilization proceeds. *)

val kill_server : t -> I3.Server.t -> unit
(** Fail-stop a member; peers notice via timeouts.  Its server's and
    driver's series go with it, but its decode errors are first added
    to [wire.decode_errors{instance=<net>,proto="frame"}].  No-op on a
    dead member. *)

val restart_server : t -> I3.Server.t -> unit
(** Recover a killed member: a fresh engine and driver at the same
    address and identifier with empty soft state, rejoining by address
    through the live members.  Its server is a new {!I3.Server.t} with a
    new [instance] label, and its driver series carry that label.  Hosts
    re-insert their triggers on refresh (Sec. IV-C).  No-op on a live
    member. *)

val servers : t -> I3.Server.t list
(** The servers of live members. *)

val all_servers : t -> I3.Server.t list
(** Every server ever started, alive or dead, in join order — the victim
    index space of a fault schedule's [Crash]/[Restart] events. *)

val nth_server : t -> int -> I3.Server.t
(** The i-th server in join order. @raise Invalid_argument out of range. *)

val owners_of : t -> Id.t -> I3.Server.t list
(** Servers currently claiming responsibility for an identifier (by their
    local state). Exactly one once the ring has converged. *)

val new_host :
  t ->
  ?site:int ->
  ?config:Host.config ->
  ?n_gateways:int ->
  unit ->
  Host.t

val net : t -> string Net.t
(** The one net: i3 and Chord frames share each member's endpoint, so a
    link fault on it hits both protocols at once, as on a real host. *)

