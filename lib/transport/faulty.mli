(** Seeded fault injection at the send boundary of any byte transport.

    The decorator keeps only what the wire needs on top of the shared
    link-fault interpreter: a due-time queue for delayed datagrams and
    its [faulty.*] counters.  Every decision — partition cuts, one-way
    gray links, Gilbert-Elliott burst loss, uniform loss, duplication and
    extra delay — comes from {!Faults.fate}, the function {!Net.send}
    calls, with the local address as source site and the destination
    address as destination site.  So one seed and one event sequence give
    the same drops, copies and delays as a {!Net.t}, draw for draw, which
    is what lets one [Faults.schedule] drive sim and wire runs alike.

    Delayed datagrams leave on {!flush}; call it from the owning poll
    loop. *)

type lower = {
  send : dst:int -> string -> unit;
  set_handler : (src:int -> string -> unit) -> unit;
  local_addr : int;
}
(** The wrapped transport, as three closures — any {!Transport.S}
    instance fits. *)

type t

val of_udp_lower : Udp.t -> lower

val create :
  ?metrics:Obs.Metrics.t ->
  ?clock:(unit -> float) ->
  rng:Rng.t ->
  lower ->
  t
(** [clock] returns milliseconds (default: wall clock); inject a fake
    clock to unit-test delay deterministically.  Registers
    [faulty.sent/duplicated/delayed] counters and [faulty.dropped] with
    the same [cause] labels as [net.dropped] ({!Faults.cause_name}). *)

val of_udp :
  ?metrics:Obs.Metrics.t ->
  ?clock:(unit -> float) ->
  rng:Rng.t ->
  Udp.t ->
  t

(** {1 The transport face} — same shape as {!Transport.S}. *)

val send : t -> dst:int -> string -> unit
(** Subject one datagram to {!Faults.fate}: it is dropped, or it and a
    possible duplicate each leave now or park until their extra delay
    has passed. *)

val set_handler : t -> (src:int -> string -> unit) -> unit
(** Delegates to the wrapped transport — faults apply on send only. *)

val local_addr : t -> int

(** {1 Delay queue} *)

val flush : t -> int
(** Release every parked datagram whose due time has passed; returns how
    many left.  Call from the poll loop. *)

val poll : t -> now:float -> unit
(** {!flush}, under the uniform {!Transport.S} maintenance convention.
    Due times come from the [clock] fixed at {!create} (so seeded
    replays stay faithful); [now] is ignored. *)

val pending : t -> int

(** {1 Fault control} *)

val apply : t -> Faults.event -> unit
(** {!Faults.apply}: install one link-fault event, with sites read as
    packed addresses.  [Crash]/[Restart] are ignored — process lifecycle
    belongs to the supervisor above.
    @raise Invalid_argument on an invalid parameter. *)
