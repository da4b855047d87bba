(** The paper's two server-selection policies built on {!Anycast}
    (Sec. III-C).

    {b Load balancing}: members and clients use random suffixes; a member
    inserts a number of triggers proportional to its capacity, so the
    uniform random longest-prefix match lands on it proportionally often.

    {b Locality}: members encode their location ("zip code") in the
    most-significant suffix bits and clients encode theirs; the
    longest-prefix match then favors nearby servers. *)

type member = {
  host : Transport.Host.t;
  mutable trigger_ids : Id.t list;  (** currently installed triggers *)
}

(** {1 Load balancing} *)

val join_weighted :
  Transport.Host.t -> Rng.t -> group:Anycast.group -> capacity:int -> member
(** Install [capacity] random-suffix triggers. *)

val set_capacity : member -> Rng.t -> group:Anycast.group -> int -> unit
(** Adapt the number of triggers to the current load (the paper's adaptive
    algorithm in one step): inserts or removes triggers to reach the new
    capacity. *)

val request_any : Transport.Host.t -> Rng.t -> group:Anycast.group -> string -> unit

(** {1 Locality} *)

val join_near : Transport.Host.t -> Rng.t -> group:Anycast.group -> zip:string -> member

val request_near :
  Transport.Host.t -> Rng.t -> group:Anycast.group -> zip:string -> string -> unit

val leave : member -> unit
