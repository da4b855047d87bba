(** Host-side i3 client over UDP: {!Host} on a socket, optionally
    through a {!Faulty} decorator so chaos scenarios exercise this exact
    path.  The application API is {!Host}'s, on {!host}; this module adds
    what needs the socket and a blocking loop. *)

val default_config : Host.config
(** {!Host.default_config} with the cache off (every packet and insert
    crosses the gateway) and a 30 s grace. *)

type pong = { server : int; triggers : int; uptime_ms : float }
(** A daemon's status reply to {!ping}. *)

type t

val create :
  ?metrics:Obs.Metrics.t ->
  ?config:Host.config ->
  ?instance:string ->
  ?clock:(unit -> float) ->
  ?faulty:Faulty.t ->
  rng:Rng.t ->
  gateways:int list ->
  Udp.t ->
  t
(** Takes over the socket's receive handler.  [gateways] are the i3
    servers this host may talk to first; [faulty] interposes fault
    injection on every send; [clock] returns ms (default wall clock);
    the host's counters carry [instance] (default ["client"]).
    @raise Invalid_argument on an empty gateway list. *)

val host : t -> Host.t

val insert : t -> I3.Trigger.t -> [ `Acked | `Gave_up ]
(** Register (or re-assert) a trigger and block until the machine's
    round settles: acked, or [`Gave_up] after
    {!I3.Endhost.max_attempts} unacked sends (bumping [client.gave_up]
    and rotating the gateway).  The binding stays registered either
    way, so refresh keeps trying. *)

val ping : t -> dst:int -> timeout_ms:float -> pong option
(** One liveness/status probe: send a nonce'd [Ping], wait for the
    matching [Pong].  A [Pong] no ping awaits (late or unsolicited) is
    dropped and counted in [client.pongs_ignored]; Pongs never reach
    the machine. *)

val wait : t -> timeout:float -> bool
(** One blocking receive step ([timeout] in seconds): flush the fault
    layer's delay queue, then wait for at most one datagram. *)

val poll : t -> now:float -> unit
(** One maintenance step ([now] in ms on the client's clock): flush
    the fault layer, dispatch everything queued on the socket, then step
    the machine once.  Never blocks — an application loop is [wait
    ~timeout] followed by [poll ~now]. *)
