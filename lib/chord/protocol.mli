(** Asynchronous, message-passing Chord as a sans-IO state machine.

    This is the self-organizing substrate the paper relies on for
    robustness and incremental deployment (Secs. IV-C, IV-D, IV-H): nodes
    join through any existing node, periodically stabilize and fix fingers,
    keep successor lists to survive failures, and answer iterative lookups
    (the implementation in Sec. V-C is "fully asynchronous and implemented
    on top of UDP" with 30-second stabilization periods — reproduced here in
    virtual time).

    The static {!Oracle} is the converged view; tests check that a ring
    built with this protocol converges to exactly the oracle's successor
    relation and heals after failures.

    Peers evicted by failure detection are buried, not forgotten: each
    stabilize round pings one buried peer, and an answer (server
    recovery, or a healed partition) re-integrates it — the mechanism
    that merges two halves of a partitioned ring back into one. *)

type peer = Finger_table.peer = { id : Id.t; addr : int }

(** The RPC vocabulary, exposed so {!Codec} (wire form) and transports
    can see it; all exchanges are fire-and-forget datagrams
    ("fully asynchronous and implemented on top of UDP", Sec. V-C). *)

type step_result =
  | Done of peer  (** the key's successor *)
  | Next of peer  (** closest preceding node known; ask it next *)

type msg =
  | Lookup_step of { key : Id.t; token : int; reply_to : int }
  | Lookup_reply of { token : int; result : step_result }
  | Get_state of { token : int; reply_to : int }
  | State of { token : int; self : peer; pred : peer option; succs : peer list }
      (** [self] is the responder's authoritative identity: a prober
          that only knew an address (a bootstrap contact) learns the
          peer's id from it, which is what makes joining by address
          possible. *)
  | Notify of { who : peer; chain : peer list }

type config = {
  stabilize_period : float;  (** ms of virtual time; paper: 30 000 *)
  fix_fingers_period : float;
  fingers_per_round : int;  (** fingers refreshed per fix-fingers tick *)
  successor_list_length : int;
  rpc_timeout : float;  (** ms before an unanswered step marks a peer dead *)
  max_lookup_hops : int;
}

val default_config : config
(** 30 s stabilize (as in the paper), 10 s fix-fingers with 32 fingers per
    round, successor list of 8, 1 s RPC timeout, 64-hop budget. *)

type network
type node

val create :
  ?metrics:Obs.Metrics.t ->
  ?spans:Obs.Trace.t ->
  Engine.t ->
  rng:Rng.t ->
  ?config:config ->
  emit:(src:int -> dst:int -> msg -> unit) ->
  unit ->
  network
(** A ring whose I/O is injected: every outbound RPC is handed to
    [emit] and inbound traffic must be fed to {!handle}.  [I3.Engine]
    composes it with an i3 server so the same protocol runs over real
    UDP sockets and over the simulator; a test can just as well wire
    [emit] and {!handle} to a simulated [Net] itself.  Nodes carry an
    explicit transport address, which is embedded in wire messages.

    Protocol counters ([chord.lookups], [chord.lookup_failures],
    [chord.rpc_timeouts], [chord.probes_sent], [chord.ring_changes] —
    successor-pointer flips sampled each stabilize round, an in-band
    convergence signal — and the [chord.lookup_hops] /
    [chord.lookup_ms] histograms) register in [metrics] (default
    {!Obs.Metrics.default}) under the [instance] label {!ring_label}.
    Rings sharing a registry share these series, so the members of one
    deployment add up to ring-wide counters.

    Control-plane operations are recorded in [spans] (default
    {!Obs.Trace.disabled}) as {!Obs.Trace.open_op} events: a
    [chord.lookup] root per lookup with one [chord.rpc] child per
    iterative step (timeouts and retries noted), [chord.stabilize] per
    stabilize round-trip and [chord.probe] per liveness probe. *)

val ring_label : string
(** The [instance] label of every ring's [chord.*] series (["ring"]). *)

val pending_rpcs : node -> int
(** RPCs this node has in flight right now (lookup steps, stabilize
    queries, probes awaiting a reply or timeout) — an introspection
    gauge for the telemetry plane. *)

val bootstrap : network -> ?id:Id.t -> addr:int -> unit -> node
(** First node of a fresh ring (its own successor) at transport address
    [addr].  The id defaults to a fresh random id with the last k bits
    zeroed. *)

val join : network -> ?id:Id.t -> addr:int -> contacts:int list -> unit -> node
(** Start a node that joins through contacts known only by transport
    address ([i3d --join host:port]): it sends each a [Get_state] at
    once and again every other RPC timeout while it is still alone.  A
    reply's [self] identity is adopted and the contact integrated as a
    recovered peer would be; a dead address costs one datagram and
    times out quietly.  Stabilization makes the node part of the ring
    within a few periods. *)

val node_id : node -> Id.t
val node_addr : node -> int
val is_alive : node -> bool

val successor : node -> peer option
(** Current successor pointer ([None] while the node is alone or has lost
    its entire successor list). *)

val predecessor : node -> peer option

val owns : node -> Id.t -> bool
(** Whether the node is responsible for the key {e according to its own
    current state}: key in (predecessor, self].  During convergence two
    nodes may transiently both claim (or both disclaim) a key; i3's soft
    state absorbs this. *)

val local_next_hop : node -> Id.t -> peer option
(** One greedy routing step from local state (fingers + successor list);
    [None] when the node believes it owns the key.  This is the primitive
    a decentralized i3 server forwards packets with ([Transport.Dynamic]). *)

val lookup : node -> Id.t -> (peer option -> unit) -> unit
(** Iterative lookup originated at a node; the callback fires with the key's
    successor, or [None] if the hop budget or retries are exhausted. *)

val handle : node -> src:int -> msg -> unit
(** Feed one inbound protocol message, as decoded from the transport —
    the node's only receive path.  Any received message clears the
    sender's suspicion count. *)

val kill : node -> unit
(** Fail-stop the node: it stops responding and sending; others detect
    it via RPC timeouts. *)

val alive_nodes : network -> node list
(** Alive nodes in ascending id order. *)

val ring_consistent : network -> bool
(** True iff every alive node's successor pointer is exactly the next alive
    node clockwise — the converged Chord invariant. *)

val expected_successor : network -> Id.t -> node option
(** Ground truth from global knowledge (for tests). *)
