(** Large-scale multicast with bounded-degree trigger hierarchies
    (Sec. III-D, Fig. 5).

    Plain multicast stores every member's trigger under one identifier, so
    one server replicates every packet group-size times.  For large groups,
    members are re-attached through a tree of id-to-id triggers in which no
    identifier carries more than [degree] triggers; the substitution is
    invisible to senders, which still publish to the root id. *)

type plan = {
  root : Id.t;
  internal_edges : (Id.t * Id.t) list;
      (** (parent id, child id) triggers forming the interior of the tree *)
  attachment : Id.t array;
      (** attachment.(i): the identifier member [i] hangs its own trigger
          on (the root itself for tiny groups) *)
  degree : int;
}

val plan : Rng.t -> root:Id.t -> members:int -> degree:int -> plan
(** Compute a balanced bounded-degree tree. @raise Invalid_argument if
    [degree < 2] or [members < 0]. *)

val fanout_histogram : plan -> (Id.t * int) list
(** Triggers per identifier implied by the plan (internal edges plus leaf
    attachments) — every count is <= [degree]. *)

val deploy :
  coordinator:Transport.Host.t -> members:Transport.Host.t array -> plan -> unit
(** Insert the tree: the coordinator owns the internal id-to-id triggers
    (it refreshes them like any soft state), each member inserts its own
    leaf trigger. *)

val send : Transport.Host.t -> plan -> string -> unit
(** Publish to the root — identical to unicast, as always. *)
