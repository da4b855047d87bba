(** Workload generation shared by the experiments. *)

val host_pair : Rng.t -> Topology.Model.t -> int * int
(** A random (sender site, receiver site) pair with distinct sites. *)

val placed_ring :
  Rng.t ->
  Topology.Model.t ->
  n_servers:int ->
  Chord.Oracle.t * int array * (int -> int -> float)
(** A static ring placed on the topology: the membership oracle, then the
    server sites, each drawn from its own [Rng.split] of [rng], and
    [ring_latency i j], the shortest-path latency between the sites of
    ring indices [i] and [j] (0 when they share a site). *)

val payload : Rng.t -> int -> string
(** Pseudo-random payload of the given size. *)

val ids : Rng.t -> int -> Id.t array
(** [n] fresh random identifiers. *)

val log2i : int -> int
(** Integer binary logarithm (floor); [log2i 1 = 0]. *)
