(** Harnesses for the prototype measurements of Sec. V-D.

    The paper's testbed was a cluster of Pentium III/700 machines on
    1 Gb/s Ethernet; we substitute the server as a daemon runs it, minus
    the sockets: encoded frames fed through a {!Transport.Driver} into a
    static {!I3.Engine} on the build machine (see DESIGN.md).  Each
    environment isolates the code path the paper timed:

    - {b trigger insertion} (avg 12.5 us reported): [Insert] decode,
      table store and the encoded [Insert_ack];
    - {b data packet forwarding} (Fig. 10): wire decode, trigger match and
      the encoded [Deliver], as a function of payload size;
    - {b routing} (Fig. 11): next-hop selection over the finger table
      (a bisection of its distinct peers) augmented, as in the paper's
      prototype, with a cache list holding all known servers and scanned
      linearly — hence the linear growth in n;
    - {b throughput} (Fig. 12): saturation forwarding rate and user-level
      Mb/s vs. payload size. *)

type env

val lone_server : ?config:I3.Server.config -> unit -> Transport.Driver.t
(** One static engine that owns every identifier, behind a driver whose
    sends are discarded (series in a private registry). *)

val feed : Transport.Driver.t -> string array -> env
(** Iterations feed the encoded frames to the driver in turn, cycling;
    each costs its decode, engine step and effect encodes. *)

val forward_env : payload:int -> seed:int -> unit -> env
(** A {!lone_server} pre-loaded with 4096 random triggers plus the
    target trigger; iterations feed it one encoded data packet of the
    given payload size, which it decodes, matches and encodes as a
    [Deliver]. *)

val insert_env : seed:int -> unit -> env
(** Iterations feed a {!lone_server} an encoded [Insert] frame for one
    of 4096 pre-built triggers, cycling. *)

val route_env : n_nodes:int -> seed:int -> unit -> env
(** Iterations pick the next hop for a random key from a linear
    finger-table scan over [n_nodes] known servers and encode the
    forwarded packet. *)

val iter : env -> unit
(** One benchmark iteration. *)

val batch : env -> int -> unit
(** [n] iterations — for hand-rolled timing loops. *)

type throughput = {
  payload : int;
  packets_per_sec : float;
  user_mbps : float;  (** payload bits only, as in the paper *)
}

val throughput : payload:int -> seed:int -> unit -> throughput
(** Wall-clock saturation test of the forwarding path, 0.5 s long. *)

val time_per_iter_ns : env -> float * float
(** Hand-rolled (mean, stdev) nanoseconds per iteration on a warm heap
    (1,000 iterations of warm-up, then 20 timed chunks of 1,000): the
    Fig. 10/11 rows and the trigger-insertion table, which the paper
    reports as mean/stddev. *)
