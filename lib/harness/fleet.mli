(** One interface over the two substrates an i3 fleet runs on: the
    simulator ({!Transport.Dynamic}, virtual time) and real [bin/i3d]
    processes ({!Cluster} and a {!Transport.Client}, wall clock).
    {!Recovery} is written once against it.  A fleet has two end hosts:
    the probe {!sender} and the {!receiver} whose triggers the checks
    probe (both are the client on the live fleet). *)

type t

val sim :
  ?rng:Rng.t ->
  Transport.Dynamic.t ->
  sender:Transport.Host.t ->
  receiver:Transport.Host.t ->
  t
(** {!every} is [Engine.every], {!inject} runs [Faults.install] on the
    deployment's one net with victims in join order, and
    {!converged} asks whether 32 identifiers drawn from [rng] (default
    [Rng.of_int 0]) have exactly one owner each. *)

val live :
  ?faulty:Transport.Faulty.t ->
  metrics:Obs.Metrics.t ->
  Cluster.t ->
  Transport.Client.t ->
  t
(** [metrics] is the client's registry.  {!run_for} is the one
    wall-clock loop: the client's [wait] and [poll],
    {!Cluster.supervise}, then the due schedule events and {!every}
    callbacks.  [Crash] and [Restart] reach the daemons; link events
    reach only the client's send edge, [faulty], and are dropped
    without one. *)

val now : t -> float
(** ms on the fleet's clock. *)

val run_for : t -> float -> unit

val every : t -> ?phase:float -> period:float -> (unit -> unit) -> unit -> unit
(** Call [f] after [phase] ms (default [period]), then every [period]
    ms; the returned function cancels it. *)

val inject : t -> Faults.schedule -> unit
(** Run a schedule, offsets in ms from now.
    @raise Invalid_argument at once, with nothing scheduled, on a
    negative offset or a [Crash]/[Restart] of a member that does not
    exist. *)

val sender : t -> Transport.Host.t
val receiver : t -> Transport.Host.t

val owner_index : t -> Id.t -> int
(** The victim index of an identifier's owner.
    @raise Invalid_argument in the simulator without a single owner. *)

val converged : t -> bool
(** Owner probes in the simulator; {!Cluster.converged} live. *)

val metrics : t -> Obs.Metrics.t

val decode_errors : t -> int
(** [wire.decode_errors] summed over every member and host.  Live, the
    daemons' share comes from their metrics dumps: read it after
    {!Cluster.stop}. *)

val spans : t -> Obs.Trace.t
val tracer : t -> Obs.Trace.t
(** The simulator's collectors, for flight dumps; disabled live. *)

val trace_id : t -> int
(** The trace id of the next probe: a fresh pid-salted id live, so the
    daemons record its hops; {!Obs.Trace.none} in the simulator, where
    the sender's own tracer picks. *)
