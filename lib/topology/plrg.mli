(** Power-law random graph generator (stands in for the INET generator).

    The paper's first simulation topology is "a power-law random graph
    topology generated with the INET topology generator with 5000 nodes,
    where the delay of each link is uniformly distributed" (Sec. V).  We
    use preferential attachment (Barabási-Albert), which produces the
    power-law degree distribution INET targets, and draw each link's
    latency uniformly from 5-100 ms. *)

val generate : Rng.t -> n:int -> unit -> Graph.t
(** [generate rng ~n ()] builds a connected power-law graph on [n] nodes,
    each arriving node creating 2 attachment edges.
    @raise Invalid_argument if [n <= 2]. *)
