(** Live wire telemetry for a real-process fleet.

    Drives an {!Obs.Scrape} scheduler over a dedicated UDP socket
    speaking [I3.Codec] status frames: each {!tick} transmits the due
    [Stats_request]s, feeds decoded [Stats_response]s back into the
    scheduler's series store, and (when a monitor is installed) judges
    SLO rules against those {e wire-scraped} series — the live
    counterpart of parsing shutdown metrics dumps post-mortem.

    Call {!tick} from the chaos loop, e.g. on a {!Fleet.every} timer as
    [bin/i3cluster.ml] does.  The socket is private to the telemetry
    plane: scrapes are asynchronous, unlike {!Cluster.ping}'s blocking
    wait, and need no cluster. *)

type t

val create : interval_ms:float -> Obs.Scrape.target list -> t
(** A collector polling [targets] every [interval_ms] for their whole
    registry and their drained trace rings ({!Obs.Scrape.create}, with
    its 1 s reply timeout).  Binds an ephemeral UDP socket on
    127.0.0.1.
    @raise Unix.Unix_error where sockets are unavailable (sandboxes) —
    callers should degrade like the other live harnesses. *)

val of_cluster : interval_ms:float -> Cluster.t -> t
(** {!create} targeting every member of a live cluster, tagged by its
    [host:port] name. *)

val tick : t -> now_ms:float -> unit
(** One collection step: drain arrived responses into the store, send
    the polls now due, and — when a {!monitor} is installed and a scrape
    interval has passed since its last evaluation — evaluate the rules.
    Wall-clock ms; use the same clock as the chaos schedule so TTD/TTR
    line up. *)

val scrape : t -> Obs.Scrape.t
(** The underlying scheduler (poll/response/timeout counts,
    {!Obs.Scrape.last_seen}). *)

val store : t -> Obs.Series.store
(** The wire-scraped series: every accepted sample, tagged
    [("target", <host:port>)]. *)

val monitor : rules:Obs.Health.rule list -> t -> Obs.Health.t
(** Install an {!Obs.Health} monitor judging [rules] directly against
    {!store} once per scrape interval.
    Rule labels must include the [("target", ...)] tag to select one
    daemon's series.  Returns the monitor for verdict queries
    ([last], [counts], [first_breach_after], ...). *)

val flight_recorder : t -> path:string -> unit
(** Arm the monitor's {!Obs.Health.on_violation} hook to append one
    flight-recorder JSON line to [path] per entry into [Violated]: the
    failing evaluations, the last 32 points of every scraped series, and
    the hop events drained so far.
    @raise Invalid_argument when no monitor is installed. *)

val assemble : t -> Obs.Trace.tree list
(** Cross-process trace trees from every hop event drained so far
    (events are kept — calling again sees them plus newer ones). *)

val close : t -> unit
