(** Sans-IO scrape scheduler: polls a set of telemetry targets on an
    interval into a {!Series.store}, tolerating loss and timeouts.

    This is the collection half of the live telemetry plane.  It owns no
    socket and no codec — {!tick} returns the requests that are due as
    plain data, and the driver (e.g. [Harness.Telemetry]) encodes each
    as a [Stats_request] frame, transmits it, and feeds decoded
    [Stats_response] bodies back through {!on_response}.  Everything in
    between is the driver's clock: the scheduler only compares the [now]
    values it is handed.

    Loss tolerance is structural: every request carries a fresh nonce, a
    response is only accepted while its nonce is in flight (late and
    duplicated answers are ignored), an unanswered nonce expires after
    the timeout and counts in {!timeouts}, and the next interval polls
    again from scratch.  A scraper can observe a struggling fleet
    without ever becoming a load on it.

    Accepted samples are re-tagged with a [("target", instance)] label
    before they land in the store — daemons are separate processes, so
    their registry-local [instance] labels (["srv1"] in every process)
    would otherwise collide.  Drained trace events accumulate (bounded)
    until {!take_events} hands them to {!Trace.assemble}. *)

type target = {
  addr : int;  (** packed transport address to poll *)
  instance : string;  (** label value tagging this target's series *)
}

type request = { dst : int; nonce : int }
(** One poll to encode as a [Stats_request] for the whole registry that
    also drains the target's trace ring, and transmit to [dst]. *)

type t

val create : interval_ms:float -> ?timeout_ms:float -> target list -> t
(** A scheduler polling every target each [interval_ms], expiring
    unanswered requests after [timeout_ms] (default 1000).  The store
    keeps the last 512 samples of each series.  At most 65536 drained
    events are retained (older ones are kept, excess arrivals dropped)
    until collected with {!take_events}. *)

val tick : t -> now:float -> request list
(** Expire overdue in-flight requests, then return the polls now due —
    one per target when the interval has elapsed (the first tick always
    polls), [[]] otherwise.  The caller transmits them. *)

val on_response : t -> now:float -> nonce:int ->
  samples:Metrics.sample list -> events:Trace.event list -> bool
(** Accept one decoded response.  Returns [false] (and changes nothing)
    when [nonce] is not in flight — late, duplicated or forged.  On
    acceptance the samples are re-tagged with the target's
    [("target", instance)] label and ingested into {!store} at [now],
    and the events join the drained-trace accumulator. *)

val next_due : t -> float
(** Earliest time {!tick} has work: the next poll or the earliest
    in-flight expiry — a driver may sleep until then. *)

val store : t -> Series.store
(** Where accepted samples land; evaluate SLO rules against it with
    {!Health.evaluate} (sharing a store) or windowed {!Series} queries. *)

val events : t -> Trace.event list
(** Drained trace events accumulated so far, oldest first (kept). *)

val take_events : t -> Trace.event list
(** As {!events}, but empties the accumulator — feed to
    {!Trace.assemble}. *)

val last_seen : t -> string -> float option
(** Time of the last accepted response from the named target instance —
    a liveness signal for rendered dashboards. *)

val polls : t -> int
val responses : t -> int

val timeouts : t -> int
(** Requests that expired unanswered — scrape loss, not fleet loss. *)

val pending : t -> int
(** Requests currently in flight. *)
