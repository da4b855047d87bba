(** Best-effort datagram network over the event engine: the "IP layer".

    Endpoints attach at topology *sites*; a message from endpoint [a] to
    endpoint [b] is delivered after [latency site_a site_b] ms of virtual
    time, or silently dropped under the configured loss rate or if either
    endpoint is down — exactly the best-effort, no-ordering, no-reliability
    service i3 assumes of IP (paper Sec. II-A).  Endpoints can move between
    sites (host mobility) and crash/recover (server failure).

    Link-level faults — site-set {e partitions} with heal, asymmetric
    one-way {e gray links}, Gilbert–Elliott {e burst loss}, uniform loss,
    message {e duplication}, and latency {e jitter}/fixed spikes — are
    {!Faults.event}s installed with {!apply} and decided per message by
    the seeded interpreter in {!Faults}, the same one the wire's
    [Transport.Faulty] runs.  What stays here is what only a simulated
    network has: endpoints and their up/down state, topology latency,
    the observer and tap, and the [net.*] counters.  Every drop is
    counted by cause in the [net.dropped{cause}] counters, read with
    [Obs.Metrics.sum_counters].  The i3 simulators carry the wire's
    own bytes ([string Net.t]): senders encode, receivers decode. *)

type addr = int
(** Endpoint address ("IP address + port" of the paper). *)

val pp_addr : Format.formatter -> addr -> unit

type 'msg t
(** A network carrying messages of type ['msg]. *)

val create :
  ?metrics:Obs.Metrics.t ->
  Engine.t ->
  rng:Rng.t ->
  latency:(int -> int -> float) ->
  unit ->
  'msg t
(** [latency] maps a pair of sites to one-way latency in ms.  Accounting
    registers under [net.*] in [metrics] (default {!Obs.Metrics.default})
    with a fresh [instance] label ["netN"], so independent networks
    never share counters. *)

val engine : 'msg t -> Engine.t

val label : 'msg t -> string
(** The [instance] label this network's metrics carry. *)

val metrics : 'msg t -> Obs.Metrics.t
(** The registry this network counts in; endpoints count their own
    per-network series (e.g. [wire.decode_errors]) there too. *)

val register : 'msg t -> site:int -> (src:addr -> 'msg -> unit) -> addr
(** Attach a new endpoint at a site with a receive handler; returns its
    address. *)

val set_handler : 'msg t -> addr -> (src:addr -> 'msg -> unit) -> unit
val site : 'msg t -> addr -> int

val move : 'msg t -> addr -> int -> unit
(** Re-home an endpoint to another site (mobile host changing subnet).
    Messages already in flight are delivered to the new location — the
    address is the endpoint's identity here; acquiring a genuinely new
    address is modeled by registering a fresh endpoint. *)

val send : 'msg t -> src:addr -> dst:addr -> 'msg -> unit
(** Fire-and-forget datagram. Dropped silently when the source or the
    destination is down at the relevant instant, when an active partition
    or gray link separates the two sites, or on (burst or uniform) random
    loss. *)

val set_down : 'msg t -> addr -> unit
(** Crash an endpoint: it stops sending and receiving. *)

val set_up : 'msg t -> addr -> unit
val is_up : 'msg t -> addr -> bool

val set_tap : 'msg t -> (src:addr -> dst:addr -> 'msg -> unit) -> unit
(** Observe every successful delivery (tracing in tests). *)

type outcome = [ `Enqueue | `Drop of string ]
(** Fate decided by the network for one {!send}: accepted for
    transmission, or dropped with a cause (["loss"], ["burst"], ["down"],
    ["partition"], ["gray"]).  A message enqueued while its destination is
    up can still die in flight if the destination goes down before
    delivery — that surfaces as a second callback with [`Drop "down"] at
    delivery time. *)

val set_observer : 'msg t -> (src:addr -> dst:addr -> 'msg -> outcome -> unit) -> unit
(** Observe the fate of every message as the network decides it.  This is
    the hook {!Obs.Trace} integrations attach to: the network itself is
    payload-agnostic, so the observer (which can inspect ['msg]) turns
    outcomes into trace events. *)

(** {1 Link-level faults} *)

val apply : 'msg t -> Faults.event -> unit
(** Install one link-level fault event ({!Faults.apply}); [Crash] and
    [Restart] are ignored.  Faults start at none: no cuts, no loss, no
    duplication, no extra delay.  [Loss 1.] is a total blackhole.  A
    message must survive the partition cuts, the gray links, the burst
    chain and the uniform loss draw — in that order — to be delivered;
    each delivered copy arrives [latency] plus its extra delay late.
    @raise Invalid_argument on an invalid parameter. *)

val driver :
  ?crash:(int -> unit) -> ?restart:(int -> unit) -> 'msg t -> Faults.driver
(** {!apply} as a schedule driver.  [Crash] and [Restart] go to the
    optional callbacks (default: ignored), since endpoint lifecycle is
    owned by the layer above. *)

(** {1 Accounting}

    All counters live in the {!Obs.Metrics} registry passed at creation,
    each carrying this network's [instance] label ({!label}): [net.sent],
    [net.delivered], [net.duplicated] (extra copies from a
    [Faults.Duplicate] rate) and [net.dropped] with a [cause] label:
    ["loss"] (uniform i.i.d. loss), ["burst"] (Gilbert–Elliott chain in
    the Bad state), ["down"] (sender or receiver endpoint down),
    ["partition"] (crossing an active partition cut) or ["gray"]
    (one-way gray link).  Read them with [Obs.Metrics.find]. *)

val endpoint_count : 'msg t -> int
