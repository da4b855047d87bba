(** Host-side i3 client over UDP: the wire driver of {!I3.Endhost}, the
    machine the simulator's {!I3.Host} runs too.  Ack-awaited, retried
    inserts, the sender cache, re-homing, gateway rotation and the
    periodic refresh that re-populates a restarted daemon's empty soft
    state (Sec. IV-C) are its rules; this module carries its effects
    over a socket, optionally through a {!Faulty} decorator so chaos
    scenarios exercise this exact path, and counts its decisions
    ([client.sends/retries/timeouts/gave_up/acks/refreshes]). *)

type config = I3.Endhost.config = {
  refresh_period_ms : float;
  cache_ttl_ms : float;
  ack_grace_ms : float;
}

val default_config : config
(** Refresh every [I3.Endhost.default_refresh_period_ms]; 30 s grace;
    cache TTL 0, the cache off, so every packet and insert goes through
    the gateway and one datagram crosses the whole chain of daemons it
    names. *)

type pong = { server : int; triggers : int; uptime_ms : float }
(** A daemon's status reply to {!ping}. *)

type t

val create :
  ?metrics:Obs.Metrics.t ->
  ?config:config ->
  ?instance:string ->
  ?clock:(unit -> float) ->
  ?faulty:Faulty.t ->
  rng:Rng.t ->
  gateways:int list ->
  Udp.t ->
  t
(** Takes over the socket's receive handler.  [gateways] are the i3
    servers this host may talk to first; [faulty] interposes fault
    injection on every send; [clock] returns ms (default wall clock).
    @raise Invalid_argument on an empty gateway list. *)

val local_addr : t -> int

val on_deliver : t -> (stack:I3.Packet.stack -> payload:string -> unit) -> unit
(** Application callback for [Deliver] frames. *)

val gateway : t -> int
(** Current gateway daemon. *)

(** {1 Triggers} *)

val insert : t -> I3.Trigger.t -> [ `Acked | `Gave_up ]
(** Register (or re-assert) a trigger and block until the machine's
    round settles: acked, or [`Gave_up] after
    {!I3.Endhost.max_attempts} unacked sends (bumping [client.gave_up]
    and rotating the gateway).  The binding stays registered either
    way, so refresh keeps trying. *)

val remove : t -> I3.Trigger.t -> unit
(** Forget the binding and send one best-effort [Remove]. *)

val triggers : t -> I3.Trigger.t list

val maintain : t -> unit
(** Step the machine at the client's own clock and return: due
    refreshes and retries leave, never a blocking wait, so a dead server
    cannot stall the caller's loop.  Refreshes retry indefinitely and
    never bump [client.gave_up]. *)

(** {1 Data and probes} *)

val send_data :
  t -> ?ttl:int -> ?trace:int -> stack:I3.Packet.stack -> payload:string ->
  unit -> unit
(** Fire-and-forget data packet, routed by the machine (cached server,
    else the gateway).  Best effort, as in i3; reliability above it
    belongs to the application, cf. [I3apps.Reliable]. *)

val ping : t -> dst:int -> timeout_ms:float -> pong option
(** One liveness/status probe: send a nonce'd [Ping], wait for the
    matching [Pong].  A [Pong] no ping awaits (late or unsolicited) is
    dropped and counted in [client.pongs_ignored]. *)

(** {1 The loop} *)

val wait : t -> timeout:float -> bool
(** One blocking receive step ([timeout] in seconds): flush the fault
    layer's delay queue, then wait for at most one datagram. *)

val poll : t -> now:float -> unit
(** The uniform {!Transport.S} maintenance step ([now] in ms on the
    client's clock): flush the fault layer, dispatch everything queued
    on the socket, then step the machine once.  Never blocks — an
    application loop is [wait ~timeout] followed by [poll ~now]. *)

val run : t -> duration_ms:float -> unit
(** {!wait} and {!poll} until the deadline. *)
