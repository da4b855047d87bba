(** Static Chord membership ("oracle") used by the large-scale simulations.

    The paper's simulator (Sec. V) routes over a fixed set of servers with
    known identifiers — churn is studied qualitatively, not simulated — so
    the figure-8/9 experiments run over this O(log n)-lookup sorted-array
    view of the ring.  The dynamic, message-passing realization of the same
    protocol lives in {!Protocol}.

    Node identifiers are kept with their last k bits zero (paper
    Sec. IV-A) so that every identifier sharing a k-bit prefix maps to the
    same server and inexact matching stays local. *)

type t

val create : Id.t array -> t
(** Deduplicate and sort the given server ids into a ring.
    @raise Invalid_argument on an empty ring. *)

val random : Rng.t -> n:int -> t
(** [n] servers with uniform ids whose last k bits are zeroed. *)

val size : t -> int

val id : t -> int -> Id.t
(** Identifier of the server at a ring index (ascending order). *)

val index_of : t -> Id.t -> int option
(** Ring index of an exact server id. *)

val successor_index : t -> Id.t -> int
(** Index of the first server whose id is >= the key (inclusive), wrapping
    at the top of the space: Chord's [successor(key)]. *)

val responsible : t -> Id.t -> int
(** Server storing triggers for an i3 identifier:
    [successor_index (Id.routing_key id)]. *)

val successor_of : t -> int -> int
(** Next ring index clockwise. *)

val predecessor_of : t -> int -> int

val nth_successor : t -> int -> int -> int
(** [nth_successor t i k] walks [k] steps clockwise from index [i]. *)

val finger : t -> int -> int -> int
(** [finger t i e] is the ring index of [successor (id t i + 2^e)]: node
    [i]'s finger for exponent [e]. *)

val finger_at : t -> int -> Id.t -> int
(** Ring index of [successor (id t i + offset)] for an arbitrary offset —
    used by the closest-finger-set heuristic's fractional-base targets. *)

val converged : (Id.t * Id.t option) list -> bool
(** The converged-Chord invariant over one snapshot of [(node id,
    its successor's id)] pairs: every successor names the next node
    clockwise among the snapshot's ids.  A lone node's successor is
    either none or itself; with more nodes, none fails.  An empty
    snapshot is no ring: [false]. *)
