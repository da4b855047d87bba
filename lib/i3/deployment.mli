(** Wires a complete i3 system: a topology (or a uniform-latency fabric),
    a simulated IP network of wire bytes (every hop is encoded and
    decoded, {!Telemetry.receiver}), a Chord ring of {!Server}s and a
    factory for {!Host}s.

    This is the integration surface the examples, application layer and
    experiments build on.  The ring membership is static per deployment
    (the paper's simulator works the same way); the dynamic join/stabilize
    machinery is exercised separately in {!Chord.Protocol}. *)

type t

val create :
  ?seed:int ->
  ?model:Topology.Model.t ->
  ?uniform_latency_ms:float ->
  ?substrate:Koorde.Substrate.spec ->
  ?server_config:Server.config ->
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Trace.t ->
  ?spans:Obs.Trace.t ->
  n_servers:int ->
  unit ->
  t
(** Build a deployment. With [model], servers are placed on eligible
    topology sites and message latencies follow shortest paths; without
    it, all endpoints share one site with a uniform [uniform_latency_ms]
    (default 5 ms) — convenient for functional tests.  All components
    register their counters in [metrics] (default {!Obs.Metrics.default});
    passing a live [tracer] turns on per-packet hop tracing across the
    network, every server and every host created by {!new_host}; a live
    [spans] collector records each host's trigger insert/refresh
    round-trips as {!Obs.Trace.open_op} operations.

    [substrate] selects the lookup substrate the ring routes over
    ({!Koorde.Substrate.spec}, default Chord's [Default] policy). *)

val engine : t -> Sim.Engine.t
val net : t -> string Net.t
(** The byte network: taps and sends see {!Codec}-encoded frames. *)

val rng : t -> Rng.t
val now : t -> float
val run_for : t -> float -> unit
(** Advance virtual time, processing all due events. *)

val oracle : t -> Chord.Oracle.t
(** Current ring membership (replaced by {!fail_server}). *)

val servers : t -> Server.t array
(** All servers ever created, in creation order (dead ones included). *)

val server : t -> int -> Server.t
(** By ring index in the *current* ring. *)

val ring_size : t -> int

val responsible_server : t -> Id.t -> Server.t
(** The server storing triggers for an identifier. *)

val kill_server : t -> int -> unit
(** Fail-stop the server at a ring index {e without} membership repair:
    the ring keeps routing toward the dead node, so packets for its arc
    are lost — the window the paper mitigates with backup triggers
    (Sec. IV-C). *)

val add_server : t -> ?site:int -> ?id:Id.t -> unit -> Server.t
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
  t -> ?site:int -> ?config:Host.config -> ?n_gateways:int -> unit -> Host.t
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
