(** A complete i3 system on a static ring — a topology, a simulated IP
    network of wire bytes, a ring of i3 servers and a factory for
    {!Host}s — the integration surface the examples, application
    layer and experiments build on.

    Every server runs as [bin/i3d] and every {!Dynamic} member do: one
    {!I3.Engine} behind one {!Driver} on one [Sim] endpoint.  The
    engines are static ({!I3.Engine.create_static}): they run no Chord
    node and route by a view of one {!Chord.Oracle} ring that this
    module keeps converged, as the paper's simulator does, forwarding
    by classic Chord ({!Chord.Routing.Default}).  Every host
    runs the one end-host driver, {!Host}, on a [Sim] endpoint of the
    same net, as [Transport.Client] runs it on a socket. *)

type t

val create :
  ?seed:int ->
  ?model:Topology.Model.t ->
  ?server_config:I3.Server.config ->
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Trace.t ->
  ?spans:Obs.Trace.t ->
  n_servers:int ->
  unit ->
  t
(** Build a deployment. With [model], servers are placed on eligible
    topology sites and message latencies follow shortest paths; without
    it, servers sit on site 0, endpoints on one site talk at 0 ms and
    distinct sites at 5 ms — convenient for functional tests.  All
    components register their counters in [metrics] (default
    {!Obs.Metrics.default}), a server's [engine.*] and [driver.*] under
    its [instance] label.  Passing a live [tracer] turns on per-packet
    hop tracing across the network, every server and every host created
    by {!new_host}; a live [spans] collector records each host's trigger
    insert/refresh round-trips as {!Obs.Trace.open_op} operations. *)

val engine : t -> Engine.t

val net : t -> string Net.t
(** The byte network: taps and sends see {!I3.Codec}-encoded frames. *)

val rng : t -> Rng.t
val now : t -> float
val run_for : t -> float -> unit
(** Advance virtual time, processing all due events. *)

val oracle : t -> Chord.Oracle.t
(** Current ring membership (replaced by {!fail_server}). *)

val servers : t -> I3.Server.t array
(** All servers ever created, in creation order (dead ones included). *)

val server : t -> int -> I3.Server.t
(** By ring index in the *current* ring. *)

val ring_size : t -> int

val responsible_server : t -> Id.t -> I3.Server.t
(** The server storing triggers for an identifier. *)

val kill_server : t -> int -> unit
(** Fail-stop the server at a ring index {e without} membership repair:
    the ring keeps routing toward the dead node, so packets for its arc
    are lost — the window the paper mitigates with backup triggers
    (Sec. IV-C).  Its decode errors stay counted, as {!Dynamic}'s do. *)

val add_server : t -> ?site:int -> ?id:Id.t -> unit -> I3.Server.t
(** Incremental deployment (Sec. IV-H): a new server joins the ring and
    becomes responsible for an interval of the identifier space with no
    configuration.  Its arc is empty at first; triggers migrate to it
    transparently as their owners refresh, and senders whose cached server
    lost the arc are redirected by the next [Cache_info] (Sec. IV-E). *)

val fail_server : t -> int -> unit
(** Fail-stop {e and} heal: survivors adopt the converged ring without the
    dead node, as Chord stabilization would; its arc falls to the
    successor, and host refreshes repopulate the triggers there.
    @raise Invalid_argument when only one server remains. *)

val new_host :
  t ->
  ?site:int ->
  ?config:Host.config ->
  ?n_gateways:int ->
  unit ->
  Host.t
(** Attach a host at [site] (default: random eligible site) knowing
    [n_gateways] (default 3) random live servers. *)

val total_triggers : t -> int
(** Sum of stored (non-cache) triggers across live servers. *)

val sample_nearby_id : t -> Host.t -> samples:int -> Id.t
(** The paper's off-line proximity heuristic (Sec. IV-E): draw [samples]
    random identifiers, estimate the RTT to the server each would live
    on, and return the one stored closest to the host.  Receivers use
    such ids as private triggers so the one-overlay-hop path adds little
    latency (evaluated at scale by the Fig. 8 experiment). *)

val site_latency : t -> int -> int -> float
(** Latency between two sites under this deployment's model. *)
