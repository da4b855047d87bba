(** IPv4 UDP datagrams over [Unix] sockets.  Addresses pack an IPv4
    address and port into one int — [(ip << 16) | port], 48 bits — so
    the simulated and real transports share simnet's address type.
    Socket buffers are sized from {!Wire.Layout.max_datagram} so a
    maximal legal frame is never truncated on receive. *)

type t

val create : ?host:string -> ?port:int -> unit -> t
(** Bind a datagram socket ([host] default ["127.0.0.1"], [port]
    default 0 = ephemeral).  A port some other socket holds is refused
    ([EADDRINUSE]), never shared.  @raise Unix.Unix_error when binding
    is not permitted (sandboxes) or the port is taken — callers should
    degrade gracefully. *)

val send : t -> dst:int -> string -> unit
(** Fire-and-forget datagram; best-effort, unordered.
    @raise Invalid_argument beyond {!max_datagram} bytes. *)

val set_handler : t -> (src:int -> string -> unit) -> unit
(** Replace the receive callback. *)

val local_addr : t -> int

val wait : t -> timeout:float -> bool
(** Block up to [timeout] seconds for one datagram and hand it to the
    handler; returns whether one arrived.  A receive loop is [wait]
    (sleep until traffic or the next deadline) then {!poll} (drain the
    rest of the queue). *)

val poll : t -> now:float -> unit
(** The {!Transport.S} maintenance step: dispatch every datagram
    already queued on the socket without blocking ([now] is unused —
    the socket has no internal timers — but keeps the uniform driver
    convention). *)

val close : t -> unit

(** {2 Address packing} *)

val pack : ip:int -> port:int -> int
val ip_of : int -> int
val port_of : int -> int
val ip_of_string : string -> int option
val string_of_ip : int -> string
val addr_of_sockaddr : Unix.sockaddr -> int option
val sockaddr_of_addr : int -> Unix.sockaddr

val max_datagram : int
(** [Wire.Layout.max_datagram]. *)
