(** Koorde: de Bruijn routing over the sparse Chord ring
    (Kaashoek & Karger, "Koorde: A simple degree-optimal distributed hash
    table", IPTPS 2003).

    A degree-k de Bruijn graph on the 256-bit identifier space connects
    every id [i] to [k*i + d] for digits [d] in \[0, k).  Routing to a key
    is then shift-and-append: start from an imaginary identifier whose low
    bits already equal the key's top bits, and at each hop shift left by
    b = log2 k and append the key's next b bits — after the remaining
    256 - tb digits the imaginary id {e is} the key.  Because only a sparse
    set of real nodes exists, each imaginary id is "imitated" by the node
    whose clockwise arc contains it.  A node hosting [i] reaches the
    host of [k*i + d] in one hop through its {e image fingers}: pointers
    to every real node whose arc intersects the node's own de Bruijn
    image [k*id, k*succ_id].  The degree-k map stretches the node's arc
    k-fold, so the image covers k + 1 real nodes in expectation.

    Per-node routing state is therefore constant in expectation —
    successor, predecessor, and ~k + 1 image fingers (an unusually wide
    arc keeps proportionally more) — while one hop per injected digit
    keeps expected path length O(log n) with the constant shrinking as
    1/b: degree 8 needs about (log2 n)/3 + 1 hops for ~11 expected table
    slots, against classic Chord's (log2 n)/2 hops with its log2 n-entry
    finger table.  That state-vs-hops tradeoff is exactly
    what the substrate bakeoff measures.

    The implementation reuses {!Chord.Oracle} for membership ground truth
    (the simulator's static-ring convention) but only ever {e uses} the
    O(1) per-node state above when counting hops, so reported path lengths
    are faithful to a real deployment. *)

type t

val create : ?degree:int -> Chord.Oracle.t -> t
(** [create ~degree oracle] builds a router of de Bruijn degree [degree]
    (default 8).  @raise Invalid_argument unless [degree] is a power of
    two in \[2, 256\]. *)

val oracle : t -> Chord.Oracle.t
val degree : t -> int

val next_hop : t -> current:int -> key:Id.t -> int option
(** One routing step, same shape as {!Chord.Routing.next_hop}: the ring
    index the current node forwards toward the key's successor, or [None]
    if [current] is already responsible.  Successive calls along a
    delivery walk one coherent de Bruijn path: the router memoizes the
    per-key path exactly as a real Koorde packet carries its imaginary
    identifier in the header. *)

val route : t -> start:int -> key:Id.t -> int list
(** Ring indexes visited, beginning with [start] and ending at
    [Oracle.successor_index key].  Consecutive entries are distinct; with
    high probability the length is at most 2 * log2 n hops (the Koorde
    bound), enforced defensively by an [n + 256] hop budget. *)

val candidate_count : t -> int -> int
(** Forwarding candidates the node at a ring index keeps live: its
    successor plus its image fingers (the real nodes covering
    [k*id, k*succ_id], counted from the oracle).  Expected
    [degree] + 2, independent of the ring size. *)

val state_bytes : t -> int -> int
(** Modeled routing-state footprint in bytes
    ({!Chord.Routing.entry_bytes} per slot, predecessor included) —
    expected-constant in n, the O(1)-state half of the bakeoff claim. *)
