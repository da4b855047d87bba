(** Pluggable byte transports under the wire codecs.

    A transport moves opaque datagrams between integer-addressed
    endpoints — the service i3 assumes of IP.  The codecs ([I3.Codec],
    [Chord.Codec], [I3.Packet]) turn protocol values into the bytes that
    cross it, and {!Driver} is the one interpreter of an [I3.Engine]'s
    effects over any of them: [bin/i3d] runs it over real UDP sockets,
    and every {!Dynamic} and {!Deployment} member over a {!Sim}
    endpoint. *)

module Udp = Udp
(** IPv4 UDP datagrams over [Unix] sockets. *)

module Faulty = Faulty
(** Seeded send-boundary fault injection over any transport, driven by
    the simulator's {!Faults.event} vocabulary. *)

module Client = Client
(** Host-side client: the UDP driver of the [I3.Endhost] machine, plus
    liveness pings. *)

module Driver = Driver
(** Effect interpreter: pumps an [I3.Engine] over any byte sender. *)

module Dynamic = Dynamic
(** A decentralized i3 deployment in simulation: members join by
    address, each one engine behind one {!Driver} on a {!Sim}
    endpoint. *)

module Deployment = Deployment
(** The paper's static-ring simulator: {!Dynamic}'s members, static. *)

module type S = sig
  type t

  val send : t -> dst:int -> string -> unit
  (** Fire-and-forget datagram; best-effort, unordered. *)

  val set_handler : t -> (src:int -> string -> unit) -> unit
  (** Replace the receive callback. *)

  val local_addr : t -> int

  val poll : t -> now:float -> unit
  (** One non-blocking maintenance step at [now] (ms on the caller's
      clock): drain due internal queues, dispatch already-queued
      inbound datagrams.  Every implementation answers the same call,
      so loops compose transports without knowing which one they
      pump. *)
end

(** Byte datagrams over {!Net} — virtual time, fault injection
    and drop accounting included, which makes transport-level code
    testable under the whole chaos harness. *)
module Sim : sig
  include S

  val attach : string Net.t -> site:int -> t
  (** Register a fresh endpoint at [site]; messages arrive through the
      handler installed with [set_handler]. *)
end
