(** Chord finger table.

    The i-th finger of node [n] points at [successor(n + 2^i)].  Lookups
    bisect the table's distinct peers, kept in clockwise order from the
    node, so their cost grows with the peers a node holds, not with its
    256 slots.  An auxiliary [extra] list lets callers mix in cached nodes
    and is scanned linearly: the paper's prototype kept its finger table as
    a list (Sec. V-D), and a cache holding every server is what makes the
    routing-overhead benchmark (Fig. 11) grow with the number of known
    servers. *)

type peer = { id : Id.t; addr : int }

type t

val create : self:Id.t -> t
(** Empty table for a node with identifier [self] (256 slots). *)

val self : t -> Id.t
val slots : t -> int

val target : t -> int -> Id.t
(** [target t i] is [self + 2{^i}], the id the i-th finger should track. *)

val set : t -> int -> peer option -> unit
(** Setting a slot to the peer it already holds keeps the sorted peers. *)

val get : t -> int -> peer option

val fill_from : t -> (Id.t -> peer) -> unit
(** Populate every slot by querying a successor function (static setup). *)

val closest_preceding : t -> ?extra:peer list -> Id.t -> peer option
(** [closest_preceding t key] is the peer among the fingers and [extra]
    whose id is closest to — and strictly inside — the arc (self, key);
    [None] if nobody qualifies.  Among equal ids the lowest slot wins, then
    [extra] in order: the answer of a linear scan of the slots, then of
    [extra]. *)

val known_peers : t -> peer array
(** The distinct finger entries, ascending clockwise from self (the lowest
    slot's peer for each id).  The array is shared with the table until a
    slot's peer changes; do not mutate it. *)
