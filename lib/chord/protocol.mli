(** Asynchronous, message-passing Chord as a sans-IO state machine.

    This is the self-organizing substrate the paper relies on for
    robustness and incremental deployment (Secs. IV-C, IV-D, IV-H): nodes
    join through any existing node, periodically stabilize and fix fingers,
    keep successor lists to survive failures, and answer iterative lookups
    (the implementation in Sec. V-C is "fully asynchronous and implemented
    on top of UDP" with 30-second stabilization periods — reproduced here in
    virtual time).

    Each {!node} is one record: its ring state, its timers on the
    caller's wheel, its I/O closure and its share of the ring-wide
    [chord.*] series.  A node knows only its own state, so no query
    here answers for the whole ring: the static {!Oracle}, built over
    the ids of the nodes a caller holds, is the converged view, and
    tests check that a ring built with this protocol converges to
    exactly the oracle's successor relation and heals after failures.

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
  rpc_timeout : float;  (** ms before an unanswered step marks a peer dead *)
  max_lookup_hops : int;
}

val default_config : config
(** 30 s stabilize (as in the paper), 10 s fix-fingers with 32 fingers per
    round, 1 s RPC timeout, 64-hop budget.  Every node keeps a successor
    list of 8, a constant. *)

type node

val create :
  ?metrics:Obs.Metrics.t ->
  ?spans:Obs.Trace.t ->
  Engine.t ->
  rng:Rng.t ->
  ?config:config ->
  emit:(dst:int -> msg -> unit) ->
  ?id:Id.t ->
  addr:int ->
  contacts:int list ->
  unit ->
  node
(** A node at transport address [addr] whose I/O is injected: every
    outbound RPC it sends is handed to [emit] and inbound traffic must
    be fed to {!handle}.  Its timers run on the given wheel, and every
    random draw (a missing [id], timer phases, probe choices) comes
    from [rng].  [I3.Engine] composes one with an i3 server so the same
    protocol runs over real UDP sockets and over the simulator; a test
    can just as well wire [emit] and {!handle} to a simulated [Net]
    itself, passing one [rng] to every node it creates.  The id
    defaults to a fresh random id with the last k bits zeroed.

    With no [contacts] the node is the first of a fresh ring (its own
    successor).  With contacts known only by transport address
    ([i3d --join host:port]) it joins: it sends each a [Get_state] at
    once and again every other RPC timeout while it is still alone.  A
    reply's [self] identity is adopted and the contact integrated as a
    recovered peer would be; a dead address costs one datagram and
    times out quietly.  Stabilization makes the node part of the ring
    within a few periods.

    Protocol counters ([chord.lookups], [chord.lookup_failures],
    [chord.rpc_timeouts], [chord.probes_sent], [chord.ring_changes] —
    successor-pointer flips sampled each stabilize round, an in-band
    convergence signal — and the [chord.lookup_hops] /
    [chord.lookup_ms] histograms) register in [metrics] (default
    {!Obs.Metrics.default}) under the [instance] label {!ring_label}.
    Registration is idempotent per name and labels, so the nodes of one
    deployment share these series and add up to ring-wide counters.

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
