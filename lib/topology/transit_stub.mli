(** Transit-stub topology generator (stands in for GT-ITM).

    The paper's second simulation topology is "a transit-stub topology
    generated with the GT-ITM topology generator with 5000 nodes, where
    link latencies are 100 ms for intra-transit domain links, 10 ms for
    transit-stub links and 1 ms for intra-stub domain links", with i3
    servers assigned only to stub nodes (Sec. V).

    The generator builds 4 transit domains of 4 routers each; every
    transit router hosts 3 stub domains whose sizes are chosen so the
    total node count reaches [n]. *)

type t = {
  graph : Graph.t;
  transit : int array;  (** node ids of transit routers *)
  stub : int array;  (** node ids of stub nodes *)
}

val generate : Rng.t -> n:int -> unit -> t
(** Build a connected transit-stub topology with [n] total nodes and the
    paper's latencies, 100/10/1 ms. @raise Invalid_argument if [n] is too
    small to host the transit core and one node per stub domain (64). *)
