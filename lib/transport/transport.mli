(** Byte transports under the wire codecs.

    A transport moves opaque datagrams between integer-addressed
    endpoints — the service i3 assumes of IP.  The codecs ([I3.Codec],
    [Chord.Codec], [I3.Packet]) turn protocol values into the bytes that
    cross it, and {!Driver} is the one interpreter of an [I3.Engine]'s
    effects over any of them: it takes a send function, so [bin/i3d]
    runs it over real UDP sockets, and every {!Dynamic} and
    {!Deployment} member over a {!Sim} endpoint.  No module signature
    abstracts the transports, since nothing is generic over them: each
    caller names the one it runs on. *)

module Udp = Udp
(** IPv4 UDP datagrams over [Unix] sockets. *)

module Faulty = Faulty
(** Seeded send-boundary fault injection over any send function,
    driven by the simulator's {!Faults.event} vocabulary. *)

module Host = Host
(** The end-host API and the one driver of the [I3.Endhost] machine, on
    a {!Sim} endpoint or over any send function. *)

module Client = Client
(** {!Host} on a UDP socket, plus liveness pings and a blocking
    loop. *)

module Driver = Driver
(** Effect interpreter: pumps an [I3.Engine] over any byte sender. *)

module Dynamic = Dynamic
(** A decentralized i3 deployment in simulation: members join by
    address, each one engine behind one {!Driver} on a {!Sim}
    endpoint. *)

module Deployment = Deployment
(** The paper's static-ring simulator: {!Dynamic}'s members, static. *)

(** Byte datagrams over {!Net} — virtual time, fault injection
    and drop accounting included, which makes transport-level code
    testable under the whole chaos harness. *)
module Sim : sig
  type t

  val attach : string Net.t -> site:int -> t
  (** Register a fresh endpoint at [site]; messages arrive through the
      handler installed with [set_handler]. *)

  val send : t -> dst:int -> string -> unit
  (** Fire-and-forget datagram; best-effort, unordered. *)

  val set_handler : t -> (src:int -> string -> unit) -> unit
  (** Replace the receive callback. *)

  val local_addr : t -> int
end
