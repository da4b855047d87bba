(** The sans-IO i3 node: one forwarding server ({!Server}) fused with
    its ring — one live Chord node ({!Chord.Protocol}, {!create}) or a
    static view ({!create_static}) — behind a pure state-machine API.

    The engine performs no I/O and reads no clock.  Its whole surface
    is [step t ~now event -> effect list]: the caller stamps each input
    with its own notion of time (virtual milliseconds in tests,
    milliseconds since process start in a daemon) and interprets the
    returned effects against whatever transport it owns.  An input is
    what a node can receive and nothing more: a decoded frame, a burst
    of them, or a tick of the clock (paper Sec. V-C: the control
    protocol is fully asynchronous on top of UDP).  A trigger insert or
    a data packet enters as the [Message.Insert] or [Message.Data]
    frame a host would send, so a test exercises the path a daemon
    runs.  One driver ships with the repo, [Transport.Driver]: the UDP
    daemon [bin/i3d] and every simulated member of [Transport.Dynamic]
    and [Transport.Deployment] run it alike.
    Stepping an engine directly and through the driver gives identical
    effect traces for identical inputs ([test/test_engine.ml] pins this
    on a three-engine ring), which is the point: protocol behaviour is
    decided here, delivery is decided by the driver.

    Internally the engine owns a private {!Sim.Engine} wheel carrying
    every timer the composed protocols need (soft-state sweeps,
    stabilize/fix-fingers rounds, RPC timeouts, join retries).  [step]
    advances the wheel to [now] before dispatching, and the trailing
    {!effect.Set_timer} tells the caller the next deadline, so a
    driver sleeps exactly as long as the protocols allow and no
    longer. *)

type frame =
  | I3 of Message.t
  | Chord of Chord.Protocol.msg
      (** Both protocols share one transport address per node; frames
          are told apart by the wire kind byte ({!decode}). *)

type event =
  | Frame of { src : Packet.addr; frame : frame }
      (** A decoded datagram from [src] (its packed transport
          address). *)
  | Batch of event list
      (** Several events sharing one [step]: a driver draining a socket
          backlog hands the whole burst over at once, paying the timer
          advance, outbox drain and introspection refresh once instead
          of per frame.  Dispatched in list order; equivalent to
          stepping the events one at a time at the same [now] (and
          counted as that many [engine.events]).  Nesting is allowed. *)
  | Tick  (** No input — just advance timers to [now]. *)

type effect =
  | Send of Packet.addr * Message.t  (** Encode and transmit. *)
  | Chord_send of Packet.addr * Chord.Protocol.msg
  | Deliver of {
      dst : Packet.addr;
      stack : Packet.stack;
      payload : string;
      trace : int;
    }
      (** A matched packet leaving the overlay for end-host [dst] —
          distinct from {!effect.Send} so drivers can route or count
          deliveries without decoding ({!encode_effect} still encodes
          it as a {!Message.Deliver} frame for wire transports). *)
  | Set_timer of float
      (** Call [step ~now Tick] no later than this time (same clock as
          the [now] the caller supplies).  At most one per step, always
          last. *)

type t

val create :
  ?seed:int ->
  addr:Packet.addr ->
  ?id:Id.t ->
  ?join:Packet.addr list ->
  ?site:int ->
  ?config:Server.config ->
  ?chord_config:Chord.Protocol.config ->
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Trace.t ->
  ?spans:Obs.Trace.t ->
  unit ->
  t
(** A node at transport address [addr] (for UDP, the packed [ip:port]
    peers reach it at).  [id] defaults to a fresh random routing key;
    daemons pass [Id.routing_key (Id.name_hash "host:port")] so ids are
    stable across restarts.  With [join] contacts the node probes them
    by address immediately and keeps retrying every other RPC timeout
    while it is still alone; without, it bootstraps a fresh ring (both
    {!Chord.Protocol.create}).

    [site] (default 0) stamps every {!Obs.Trace} event this node records
    — daemons pass their port so hop events drained from different
    processes stay distinguishable when {!Obs.Trace.assemble} joins them
    into cross-process trees.  [spans] records the Chord node's
    control-plane operations ({!Chord.Protocol.create}), apart from
    [tracer] so they never evict packet hops.

    Registers [engine.events] / [engine.effects] counters, the
    [engine.effect_batch] histogram, and the introspection gauges
    [engine.wheel_depth] (pending timers), [engine.pending_rpcs]
    (in-flight Chord RPCs) and [engine.triggers] (resident triggers) in
    [metrics] under the server's [instance] label; the gauges are
    refreshed on every {!step}.

    A received [Message.Stats_request] frame is answered by the engine
    itself (never forwarded to the server) as a pure {!effect.Send} of a
    [Message.Stats_response]: a snapshot of [metrics] filtered by the
    requested name prefix, truncated to [Wire.Layout.max_stats_samples],
    plus — when the request asks to drain — the events still in
    [tracer]'s ring (which are consumed: each one crosses the wire
    exactly once). *)

val create_static :
  addr:Packet.addr ->
  id:Id.t ->
  view:Server.ring_view ->
  ?site:int ->
  ?config:Server.config ->
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Trace.t ->
  unit ->
  t
(** A node on a static ring: its server routes and claims ownership by
    [view] alone.  It draws no seed and runs no Chord node, timer or
    frame; a Chord frame that reaches it is dropped and counted in
    [engine.chord_dropped], and [engine.pending_rpcs] reads 0. *)

val addr : t -> Packet.addr
val id : t -> Id.t

val server : t -> Server.t
(** The embedded forwarding server (trigger tables, stats). *)

val chord : t -> Chord.Protocol.node
(** The embedded Chord node (successor/predecessor, ring state).
    @raise Invalid_argument on a {!create_static} engine. *)

val now : t -> float
(** The engine's clock: the largest [now] any {!step} has seen. *)

val next_due : t -> float option
(** Earliest pending timer — what the next {!effect.Set_timer} will
    say. *)

val decode : string -> (frame, string) result
(** Classify and decode one datagram by its kind byte (offset
    [Wire.Layout.off_kind]): Chord RPC kinds go to [Chord.Codec],
    everything else — data packets and i3 control kinds — to
    {!Codec}.  Never raises. *)

val encode_effect : effect -> (Packet.addr * string) option
(** Wire form of an effect: [Some (dst, bytes)] for the three send
    shapes, [None] for {!effect.Set_timer} (which only re-arms the
    driver's clock). *)

val step : t -> now:float -> event -> effect list
(** Advance timers to [now], dispatch the event, and return every
    effect produced — timer-driven sends first (in schedule order),
    then the event's own output, then at most one {!effect.Set_timer}.
    [now] must come from a single monotonic clock per engine; a
    regressing [now] is clamped (time never rewinds).  The engine's
    clock starts at the first step's [now]: timers armed at creation
    (stabilize, fix-fingers, sweeps, join probes) count from there.
    Deterministic: same seed, same event sequence, same effect trace. *)
