(** Constrained triggers (paper Sec. IV-J1).

    A 256-bit identifier is split into a 64-bit prefix, a 128-bit key and a
    64-bit suffix.  For a trigger [(x, y)] whose target [y] is itself an
    identifier, i3 servers only accept the insertion if

    - [x.key = h_l(y.key)]  (left constrained), or
    - [y.key = h_r(x.key)]  (right constrained),

    where [h_l] and [h_r] are distinct public one-way functions.  Because an
    attacker cannot invert the hashes, it cannot forge a trigger that
    eavesdrops on someone else's id, and trigger cycles (loops) would
    require a hash fixpoint chain, so arbitrary malicious topologies are
    ruled out while legitimate chains built in either direction remain
    expressible. Triggers whose target is an end-host address are vetted by
    challenges instead ({!I3} server logic). *)

val h_l : string -> string
(** One-way function for left-constrained triggers: 16-byte key to 16-byte
    key. @raise Invalid_argument on wrong input size. *)

val h_r : string -> string
(** One-way function for right-constrained triggers. *)

val left_constrained : base:Id.t -> target:Id.t -> Id.t
(** [left_constrained ~base ~target] builds a trigger identifier that keeps
    [base]'s prefix and suffix but whose key field is [h_l(target.key)], so
    the trigger [(result, target)] passes {!check}. *)

val right_constrained : base:Id.t -> source:Id.t -> Id.t
(** [right_constrained ~base ~source] builds a target identifier keeping
    [base]'s prefix and suffix whose key is [h_r(source.key)], so the
    trigger [(source, result)] passes {!check}. *)

val check : trigger_id:Id.t -> target:Id.t -> bool
(** Whether the id-to-id trigger satisfies either constraint. *)
