(** A ready-to-use network model: generated topology + latency oracle +
    server-placement policy.

    Encapsulates the paper's two simulation set-ups (Sec. V):
    - power-law random graph, i3 servers randomly assigned to *all* nodes;
    - transit-stub, i3 servers randomly assigned to *stub* nodes only. *)

type kind = Plrg | Transit_stub

val kind_to_string : kind -> string
val kind_of_string : string -> kind
(** @raise Invalid_argument on unknown names. *)

type t

val build : Rng.t -> kind -> n:int -> t
(** Generate an [n]-node topology of the given kind with the paper's
    parameters. *)

val kind : t -> kind option
val graph : t -> Graph.t
val oracle : t -> Dijkstra.oracle

val latency : t -> int -> int -> float
(** Shortest-path latency between two topology nodes (ms). *)

val eligible_sites : t -> int array
(** Nodes allowed to host servers (all nodes for PLRG, stub nodes for
    transit-stub). Do not mutate. *)

val place_servers : Rng.t -> t -> count:int -> int array
(** [place_servers rng t ~count] draws a site for each of [count] servers
    uniformly from the eligible nodes (with replacement, as multiple
    servers may share a LAN). *)

val random_host_site : Rng.t -> t -> int
(** A uniform end-host location (eligible nodes). *)
