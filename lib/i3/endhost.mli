(** The sans-IO end host: the paper's host-side contract — refresh with
    ack-awaited retries, the sender cache (Sec. IV-E), re-homing and
    gateway failover (Sec. IV-C), challenge answers (Sec. IV-J3), the
    first-packet detour — as one pure state machine.  Like {!Engine} it
    does no I/O and reads no clock; its one driver, [Transport.Host],
    runs it on a simulated endpoint and (as [Transport.Client]) over
    UDP, so both take the same decisions for the same stamped inputs.

    A binding's round opens when it is inserted, moved, or due
    ([refresh_period_ms] after its last acked send).  An unacked send is
    retried after {!attempt_timeout_ms} plus a jittered exponential
    backoff (at most {!max_backoff_ms}); the [Insert_ack] closes the
    round.  Sends go to the prefix's cached server, else the current
    gateway; two misses drop the cached server ({!note.Rehomed}), and a
    binding unacked for [ack_grace_ms] rotates the gateway (at most once
    per refresh period).  So does a data packet's gateway detour that draws
    no [Cache_info] within [ack_grace_ms], so a host that only sends
    still leaves a dead gateway. *)

type config = {
  refresh_period_ms : float;
  cache_ttl_ms : float;  (** trust in a learned prefix->server entry *)
  ack_grace_ms : float;  (** silence before rotating the gateway *)
}

val default_refresh_period_ms : float
(** [Trigger.default_lifetime_ms / 3]: two refreshes may be lost, or
    one may take a slower path than the last, before a live trigger
    expires.  The default on the simulator and the wire alike. *)

val attempt_timeout_ms : float
(** Ack wait per attempt: 250. *)

val max_backoff_ms : float
(** 2 400: the 2 000 cap plus 20% jitter (base 50, doubling per miss). *)

val max_attempts : int
(** Unacked sends before a synchronous insert gives up: 5. *)

type note =
  | Acked of { trigger : Trigger.t; server : Packet.addr }
      (** the round closed; [server] is cached for the prefix *)
  | Refresh_sent of { trigger : Trigger.t; dst : Packet.addr; attempt : int }
      (** an [Insert] the machine scheduled itself: [attempt] 1 opens a
          refresh round, more is a retry (API inserts are not noted) *)
  | Rehomed of { trigger : Trigger.t; stale : Packet.addr }
      (** two misses at the cached server: forgotten *)
  | Gave_up of Trigger.t
      (** a synchronous insert ran out of attempts; the gateway rotates
          and the binding keeps refreshing.  Refresh rounds never give
          up. *)

type event =
  | Frame of Message.t  (** A decoded message addressed to this host. *)
  | Tick
  | Insert of { trigger : Trigger.t; sync : bool }
      (** Register (or re-assert) a binding and send its [Insert] now;
          [sync] rounds report {!note.Gave_up}. *)
  | Remove of Trigger.t  (** Forget it; send one best-effort [Remove]. *)
  | Send_packet of Packet.t
      (** Stamp this host as sender and send to an [Saddr] head, the
          cached server of an [Sid] head, or through the gateway with
          the refreshing flag.  @raise Invalid_argument on an empty
          stack. *)
  | Move of Packet.addr
      (** New address: rewrite and re-insert every binding (II-D1). *)

type effect =
  | Send of Packet.addr * Message.t
  | Deliver of { stack : Packet.stack; payload : string; trace : int }
  | Note of note
  | Set_timer of float
      (** Step [Tick] by then; last, and only while bindings exist. *)

type t

val create :
  ?spans:Obs.Trace.t ->
  config:config ->
  rng:Rng.t ->
  addr:Packet.addr ->
  gateways:Packet.addr list ->
  unit ->
  t
(** [rng] draws the jitter.  [spans] gets an [i3.trigger_insert] or
    [i3.trigger_refresh] operation per round (closed by the ack,
    decisions noted) and an [i3.first_packet] operation per detour (its
    parent is the packet's trace, closed by [Cache_info]).
    @raise Invalid_argument on no gateways. *)

val step : t -> now:float -> event -> effect list
(** Dispatch the event, then send what is due at [now].  A regressing
    [now] is clamped.  The same seed and stamped events give the same
    effects. *)

val addr : t -> Packet.addr
val gateway : t -> Packet.addr
val triggers : t -> Trigger.t list
(** Newest first. *)

val cached_server : t -> now:float -> Id.t -> Packet.addr option
