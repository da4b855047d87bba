(** Application-level multicast (Sec. II-D2).

    A multicast group is nothing but an identifier every member maintains a
    trigger for; senders are oblivious to group size, and a unicast flow
    becomes multicast the moment a second trigger appears — no address
    change, unlike IP multicast. *)

type group = Id.t

val create_group : Rng.t -> group
(** A fresh random group identifier. *)

val named_group : string -> group
(** Public group identifier derived from a name (e.g. a session URL). *)

val join : Transport.Host.t -> group -> unit
(** Insert (and keep refreshed) the member's trigger for the group. *)

val leave : Transport.Host.t -> group -> unit

val send : Transport.Host.t -> group -> string -> unit
(** Identical to a unicast send — the infrastructure fans out. *)

val member_count : Transport.Deployment.t -> group -> int
(** Triggers currently stored for the group id (test/monitoring helper). *)
