(** An i3 server: stores triggers for its arc of the identifier space and
    forwards packets (paper Fig. 3 and Sec. IV).

    On a data packet whose head identifier it is responsible for, the
    server longest-prefix-matches the head against its triggers; every
    matching trigger's stack is prepended to the rest of the packet's stack
    and the packet is re-processed — delivering via "IP" when the new head
    is an address, re-entering the overlay when it is an identifier, and
    popping the head (or dropping, if the packet's match-required flag is
    set) when nothing matches.  Packets it is not responsible for are
    relayed one Chord hop via {!Chord.Routing}, unless a hot-spot cache
    pushed the relevant prefix bucket here, in which case the server
    answers from the cache (Sec. IV-F).

    Implemented defenses: sender-cache feedback (refreshing flag,
    Sec. IV-E), trigger constraints and challenges (Sec. IV-J), pushback of
    dead-end trigger chains (Sec. IV-J2), and soft-state expiry
    (Sec. IV-C). *)

type config = {
  trigger_lifetime : float;  (** ms a stored trigger lives between refreshes *)
  check_constraints : bool;
  challenge_hosts : bool;
  hot_spot_threshold : int option;
      (** matches of a single identifier within one window that trip a
          cache push; [None] disables hot-spot relief *)
  hot_spot_window : float;  (** ms *)
  replicate : bool;
      (** overlay-managed replication (Sec. IV-C, second solution): mirror
          each accepted trigger onto the ring successor, so a server
          failure leaves no window where packets are lost while hosts wait
          for their next refresh *)
}

val default_config : config
(** 30 s lifetime, constraints and challenges off (they are opt-in, as apps
    must construct compliant triggers), hot-spot off. *)

val sweep_period : float
(** ms between expiry sweeps: 5 s. *)

type ring_view = {
  owns : Id.t -> bool;
      (** does this server store triggers for the identifier? *)
  next_hop : Id.t -> Packet.addr option;
      (** overlay next hop toward the identifier's responsible server;
          [None] when this server owns it *)
  successor_addr : unit -> Packet.addr option;
      (** ring successor (replication target, Sec. IV-C) *)
  predecessor_addr : unit -> Packet.addr option;
      (** ring predecessor (hot-spot push target, Sec. IV-F) *)
}
(** How a server sees the ring, fixed at creation.  {!Engine.create}
    derives it from its live {!Chord.Protocol} node; {!Engine.create_static}
    takes it from its owner ([Transport.Deployment] builds it over the
    static oracle ring it keeps converged), so the very same forwarding
    engine runs over a live and a static ring. *)

type t

val create :
  engine:Sim.Engine.t ->
  addr:Packet.addr ->
  emit:(dst:Packet.addr -> Message.t -> unit) ->
  view:ring_view ->
  ?site:int ->
  id:Id.t ->
  ?config:config ->
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Trace.t ->
  unit ->
  t
(** A server whose I/O is injected: every outbound message goes through
    [emit] and inbound traffic arrives via {!handle_message} — the
    sans-IO face {!Engine} composes with its ring.  Only {!Engine}
    creates servers; everything else runs one as an engine behind
    [Transport.Driver].  [addr] is the
    server's externally visible address (it is embedded in
    [Insert_ack]/[Pong] frames, so it must be the address peers can
    actually reach — for UDP, the packed [ip:port]).  [engine] supplies
    the virtual clock for soft-state expiry; the owner advances it.
    Counters register in [metrics] (default {!Obs.Metrics.default})
    under this server's [instance] label: [i3.data_received],
    [i3.data_forwarded] (overlay hops), [i3.deliveries] (IP sends to end
    hosts), [i3.matched_packets], [i3.drops{cause}], [i3.inserts{result}],
    [i3.challenges_sent], [i3.pushbacks_sent], [i3.cache_hits] (packets
    served from pushed triggers) and [i3.cache_pushes]; read them with
    [Obs.Metrics.sum_counters].  [tracer] (default {!Obs.Trace.disabled})
    receives per-packet relay / cache-hit / trigger-match / drop events
    for traced packets. *)

val view : t -> ring_view

val addr : t -> Packet.addr
val id : t -> Id.t

val instance_label : t -> string
(** The [instance] label value this server's metrics carry (["srvN"]). *)

val triggers : t -> Trigger_table.t
val cached_triggers : t -> Trigger_table.t

val replica_triggers : t -> Trigger_table.t
(** Triggers mirrored here by the predecessor (empty unless
    [config.replicate]); promoted into the live table the moment this
    server becomes responsible for them. *)

val kill : t -> unit
(** Fail-stop: stop answering; stored triggers die with the server (hosts
    re-insert them on refresh — Sec. IV-C), and the periodic expiry
    sweep is cancelled.  Every registry series
    carrying this server's [instance] label is removed, so snapshots
    don't read ghost values from a dead process.  Recovery is a fresh
    server at the same address, exactly as a restarted process would
    be.  The owner marks any endpoint down itself. *)

val is_alive : t -> bool

val handle_packet : t -> Packet.t -> unit
(** Process a data packet as if received from the network ({!Engine}'s
    [Send_packet]); its sends leave through [emit]. *)

val handle_message : t -> src:Packet.addr -> Message.t -> unit
(** Full message entry point (control + data) — the server's receive
    path, which {!Engine} feeds with decoded frames. *)
