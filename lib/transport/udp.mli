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

    Receives go through the same stub over [recvmmsg(2)]: one syscall
    takes up to 16 datagrams into a per-socket slab of 16 slots of
    {!max_datagram} bytes each.  The slab is [malloc]'d outside the
    OCaml heap and freed when the socket is collected: about 1 MiB of
    address space per socket, of which only the pages datagrams have
    landed on are resident.  The stub packs each source address in C,
    so no [Unix.sockaddr] is built and no address memo is kept; each
    datagram is copied out once, into a string of its exact length. *)

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
    first, so an oversized datagram sends nothing.  Each batch of 64 is
    staged in the socket's preallocated send slots, which are cleared
    after the call so no sent payload stays reachable.

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
(** [send_many] of one datagram, with the same checks and errors.  It
    goes out from the socket's own send slot, so it allocates nothing:
    the load generator's per-packet path. *)

val set_handler : t -> (src:int -> string -> unit) -> unit
(** Replace the receive callback. *)

val local_addr : t -> int

val wait : t -> timeout:float -> bool
(** One [select] of up to [timeout] seconds, then one non-blocking
    receive of a single datagram, handed to the handler; returns whether
    a datagram arrived.  Taking one datagram, not a slab's worth, hands
    a lone packet on at once.  A signal (EINTR) returns [false], so the
    caller's loop decides what it means.  A receive loop is [wait]
    (sleep until traffic or the next deadline) then {!poll} (drain the
    rest of the queue). *)

val poll : t -> now:float -> unit
(** Dispatch every datagram already queued on the socket without
    blocking, in arrival order.  Each [recvmmsg] takes up to a slab's 16
    datagrams and copies all of them out before the first handler call,
    so a handler that polls again cannot overwrite a datagram not yet
    dispatched; the drain stops at the first short batch (EAGAIN or
    EINTR reads as an empty one).  A handler that raises ends the drain, and the rest of its
    batch is lost.  A datagram from a peer with no packed IPv4 address
    is skipped.  [now] is unused — the socket has no internal timers —
    and stays because existing callers, the e2e benchmark's load
    generator among them, pass it. *)

val close : t -> unit

(** {2 Address packing} *)

val pack : ip:int -> port:int -> int
val ip_of : int -> int
val port_of : int -> int
val ip_of_string : string -> int option
val string_of_ip : int -> string
val addr_of_sockaddr : Unix.sockaddr -> int option
(** [None] for an IPv6 or Unix-domain address. *)

val max_datagram : int
(** [Wire.Layout.max_datagram]. *)
