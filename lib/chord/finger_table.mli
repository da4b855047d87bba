(** Chord finger table.

    The i-th finger of node [n] points at [successor(n + 2^i)].  Matching
    the paper's prototype ("the finger table data structure in our
    implementation is a list", Sec. V-D, Fig. 11), lookups scan the entries
    linearly — which is also what the routing-overhead benchmark
    exercises.  An auxiliary [extra] list lets callers mix in cached nodes,
    reproducing the prototype's behaviour where the scan grows with the
    number of known servers. *)

type peer = { id : Id.t; addr : int }

type t

val create : self:Id.t -> t
(** Empty table for a node with identifier [self] (256 slots). *)

val self : t -> Id.t
val slots : t -> int

val target : t -> int -> Id.t
(** [target t i] is [self + 2{^i}], the id the i-th finger should track. *)

val set : t -> int -> peer option -> unit
val get : t -> int -> peer option

val fill_from : t -> (Id.t -> peer) -> unit
(** Populate every slot by querying a successor function (static setup). *)

val closest_preceding : t -> ?extra:peer list -> Id.t -> peer option
(** [closest_preceding t key] scans fingers (and [extra]) linearly for the
    peer whose id is closest to — and strictly inside — the arc
    (self, key); [None] if nobody qualifies. *)

val known_peers : t -> peer list
(** Deduplicated finger entries, ascending clockwise from self. *)
