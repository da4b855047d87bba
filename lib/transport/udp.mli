(** IPv4 UDP datagrams over [Unix] sockets.  Addresses pack an IPv4
    address and port into one int — [(ip << 16) | port], 48 bits — so
    the simulated and real transports share simnet's address type.
    Socket buffers are sized from {!Wire.Layout.max_datagram} so a
    maximal legal frame is never truncated on receive.

    Sends go out through a small C stub over [sendmmsg(2)]: one syscall
    carries a whole batch, and the stub builds each [sockaddr_in]
    straight from the packed address.  The socket is non-blocking, so
    the call never waits; the stub keeps the runtime lock and neither
    allocates nor releases it, so the GC cannot move the OCaml strings
    and the kernel reads them in place, with no copy.

    Receives memoize {!addr_of_sockaddr} in a fixed 64-slot
    direct-mapped table, so the hot path does no string work and
    per-socket memory does not depend on how many peers there are. *)

type t

val create : ?host:string -> ?port:int -> unit -> t
(** Bind a datagram socket ([host] default ["127.0.0.1"], [port]
    default 0 = ephemeral).  Registers the [udp.send_refused] counter,
    labeled with the bound ["ip:port"] as [instance], in
    {!Obs.Metrics.default}.  A port some other socket holds is refused
    ([EADDRINUSE]), never shared.  @raise Unix.Unix_error when binding
    is not permitted (sandboxes) or the port is taken — callers should
    degrade gracefully. *)

val send_many : t -> (int * string) list -> unit
(** Send [(dst, bytes)] datagrams in list order, best-effort, in as few
    syscalls as the stub's batch cap (64) allows.  Every size is checked
    first, so an oversized datagram sends nothing.

    The socket is non-blocking, but [send_many] keeps blocking
    semantics: when the send buffer is full (EAGAIN) or a signal
    interrupts (EINTR), it waits until the socket is writable and
    resumes at the first unsent datagram, so nothing is dropped
    silently.  A datagram the kernel refuses for its destination (any
    other errno, e.g. [EINVAL] for port 0 or [EACCES] for a broadcast
    address, both of which a peer can put in a frame) is skipped and
    counted in [udp.send_refused], and the rest of the batch goes on.
    @raise Invalid_argument if a datagram is beyond {!max_datagram}
    bytes.
    @raise Unix.Unix_error [EBADF] on a closed socket, and [ENOSYS] on
    the first send where the kernel lacks [sendmmsg]. *)

val send : t -> dst:int -> string -> unit
(** [send_many] of one datagram. *)

val set_handler : t -> (src:int -> string -> unit) -> unit
(** Replace the receive callback. *)

val local_addr : t -> int

val wait : t -> timeout:float -> bool
(** One [select] of up to [timeout] seconds, then one non-blocking
    receive handed to the handler; returns whether a datagram was
    dispatched.  A signal (EINTR) returns [false], so the caller's loop
    decides what it means.  A receive loop is [wait] (sleep until
    traffic or the next deadline) then {!poll} (drain the rest of the
    queue). *)

val poll : t -> now:float -> unit
(** The {!Transport.S} maintenance step: dispatch every datagram
    already queued on the socket without blocking, one [recvfrom] each,
    in arrival order, until EAGAIN.  EINTR ends the drain early.  A
    datagram from a peer with no packed address (IPv6) is skipped and
    the drain goes on.  [now] is unused — the socket has no internal
    timers — but keeps the uniform driver convention. *)

val close : t -> unit

(** {2 Address packing} *)

val pack : ip:int -> port:int -> int
val ip_of : int -> int
val port_of : int -> int
val ip_of_string : string -> int option
val string_of_ip : int -> string
val addr_of_sockaddr : Unix.sockaddr -> int option

val max_datagram : int
(** [Wire.Layout.max_datagram]. *)
