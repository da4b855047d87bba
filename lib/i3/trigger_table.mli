(** Per-server trigger storage with the paper's inexact matching rule.

    Matching (Sec. II-B): a trigger id [t] matches a packet id [p] iff
    (1) they share at least k = 128 leading bits and (2) no stored trigger
    has a longer prefix match with [p].  Because all identifiers sharing a
    k-bit prefix live on the same server (Sec. IV-A), the longest-prefix
    search is local: the table is a hash table keyed by that k-bit prefix,
    so a match hashes once and scans only the ids sharing the packet's
    prefix (in practice one, more only for anycast and server-selection
    groups).  All triggers with the *winning identifier* match (one group
    holds them all) — that is what makes multicast "many triggers with the
    same id" (Sec. II-D2) work with no special casing.

    Entries are soft state with absolute expiry timestamps (virtual-time
    ms); refreshing re-inserts the same binding with a later deadline.
    Expiry is lazy: each stored entry has one item in a min-heap, so
    [expire] touches only due entries instead of sweeping the whole table,
    and a refresh only moves the entry's deadline. *)

type t

val create : unit -> t

val clear : t -> unit
(** Drop every binding (a restarting server's soft state dies with it). *)

val insert : t -> now:float -> expires:float -> Trigger.t -> unit
(** Insert or refresh a binding. If an entry with the same id, stack and
    owner exists, only its expiry is extended.  Total: an already-expired
    deadline ([expires <= now], or NaN from a hostile wire lifetime) is
    silently dropped — replica and cache re-insert paths race the clock
    and must never crash the engine step. *)

val remove : t -> Trigger.t -> bool
(** Remove an exact binding; [false] if absent. *)

val remove_matching : t -> id:Id.t -> target:Id.t -> int
(** Remove every trigger with identifier [id] whose stack head is
    [Sid target]: the pushback primitive (Sec. IV-J2). Returns the number
    removed. *)

val find_matches : t -> now:float -> Id.t -> Trigger.t list
(** Longest-prefix matching: all live triggers holding the winning
    identifier (ties on prefix length broken toward the smaller id, for
    determinism), or [] if nothing reaches the k-bit threshold. *)

val bucket_of : t -> now:float -> Id.t -> Trigger.t list
(** All live triggers sharing the k-bit prefix of the given id — the unit
    pushed to a neighbor when a trigger becomes hot, because caching a
    partial bucket could make a cached longest-prefix answer wrong
    (Sec. IV-F). *)

val bucket_entries : t -> now:float -> Id.t -> (Trigger.t * float) list
(** Like {!bucket_of} but paired with each trigger's remaining lifetime in
    ms — the payload of a hot-spot push. *)

val expire : t -> now:float -> int
(** Drop entries past their deadline; returns how many were dropped. *)

val size : t -> int
(** Number of stored bindings, including not-yet-collected expired ones. *)

val iter : t -> (Trigger.t -> expires:float -> unit) -> unit
(** Visit every stored binding, in no particular order. *)

val heap_length : t -> int
(** Items in the expiry heap: one per stored binding, plus removed ones
    not yet collected; at most [2 * size t + 64] after {!expire}. *)
