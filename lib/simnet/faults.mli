(** Declarative, seed-reproducible fault schedules and the one
    interpreter of their link-level events: the chaos layer.

    A {!schedule} is a list of [(virtual-time offset, event)] pairs; a
    {!driver} interprets each event against some substrate — a raw
    {!Net.t} (via [Net.driver]), a real socket's send boundary (via
    [Transport.Faulty.apply]), or a full deployment (e.g.
    [Harness.Fleet.inject]'s, which applies network faults to a
    simulated deployment's one net — i3 and Chord frames share it, as
    they share a daemon's socket, so a partition severs both — and maps
    [Crash]/[Restart] onto server kill/recover).

    Both network boundaries delegate link faults to the same seeded
    interpreter ({!t}: {!apply} installs an event, {!fate} decides one
    message), so a seed yields the same drops, duplicates and delays in
    the simulator and on the wire.  Everything is driven by an explicit
    {!Rng.t}, so a scenario replays identically from its seed — the
    property that turns a flaky chaos test into a regression test. *)

type event =
  | Partition of int list
      (** Cut these sites off from all other sites (both directions). *)
  | Heal  (** Remove every active partition. *)
  | Crash of int
      (** Fail-stop victim [i] — interpretation of the index is the
          driver's (e.g. i-th server in join order). *)
  | Restart of int  (** Recover victim [i] with empty soft state. *)
  | Gray of { from_site : int; to_site : int }
      (** One-way gray link: [from_site -> to_site] silently drops. *)
  | Gray_heal of { from_site : int; to_site : int }
  | Burst_loss of { p_enter : float; p_exit : float; loss_bad : float }
      (** Install a Gilbert–Elliott chain: each message advances it
          (Good -> Bad with [p_enter], Bad -> Good with [p_exit]), and a
          message in the Bad state is lost with [loss_bad].  Mean burst
          length is [1 /. p_exit] messages. *)
  | Burst_end
  | Loss of float  (** Set the uniform loss rate (1. = blackhole). *)
  | Jitter of float  (** Uniform[0, ms) extra delivery latency. *)
  | Latency_spike of float  (** Fixed extra delivery latency in ms. *)
  | Duplicate of float  (** Message duplication probability. *)

val pp_event : Format.formatter -> event -> unit

type schedule = (float * event) list
(** Event times are offsets in virtual ms from the moment of
    {!install}. *)

(** {1 The link-fault interpreter} *)

type t
(** The link-fault state of one network boundary: active cut sets, gray
    links, the burst chain, loss, duplication and delay settings, and the
    {!Rng.t} every decision draws from. *)

val create : Rng.t -> t
(** A fault-free state drawing from the given generator. *)

val apply : t -> event -> unit
(** Validate and install one event.  [Partition] adds a cut set
    severing its sites from all others, in both directions (cuts
    accumulate; [Heal] removes them all); [Gray] cuts one direction of
    one site pair.  [Crash]/[Restart] are ignored: process lifecycle
    belongs to the layer above.
    @raise Invalid_argument on an empty partition, a probability outside
    \[0, 1\] or a delay that is negative or not finite (NaN included). *)

type cause = [ `Partition | `Gray | `Burst | `Loss ]

val cause_name : cause -> string
(** ["partition"], ["gray"], ["burst"] or ["loss"]: the [cause] label of
    [net.dropped] and [faulty.dropped]. *)

type fate =
  | Drop of cause
  | Once of float  (** deliver one copy, this many ms late *)
  | Twice of float * float  (** deliver the message and a duplicate *)

val fate : t -> src_site:int -> dst_site:int -> fate
(** Decide one message.  A message must survive, in this order, the
    partition cuts, the gray links, the burst chain and the uniform loss
    draw; a survivor then draws its extra delay (the fixed spike plus
    jitter), the duplicate draw, and the duplicate's own extra delay.
    That draw order is fixed, so one seed gives one outcome sequence on
    every substrate.  Traffic within one site is never cut. *)

(** {1 Schedules} *)

type driver = event -> unit

val install : Engine.t -> driver -> schedule -> unit
(** Schedule every event against the engine, relative to the current
    virtual time.  @raise Invalid_argument on a negative event time. *)

val sorted : schedule -> schedule
(** Stable-sort a schedule by event time. *)

val churn :
  Rng.t ->
  victims:int list ->
  start:float ->
  spacing:float ->
  downtime:float ->
  schedule
(** A reproducible rolling-restart storm: each victim (in a seeded random
    order) crashes at [start + i * spacing] and restarts [downtime] ms
    later.  Overlapping downtimes model correlated failures. *)
