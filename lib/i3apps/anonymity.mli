(** Sender/receiver anonymity via chains of triggers (Sec. IV-K).

    In i3, eavesdropping a sender's access link shows packets addressed to
    an identifier — not to the receiver; eavesdropping the receiver shows
    packets arriving from an i3 server — not from the sender.  The paper
    notes the protection can be strengthened with a chain of triggers: the
    receiver publishes only the entry identifier of a private chain
    [id_1 -> id_2 -> ... -> id_n -> addr], so even the i3 server holding
    the public entry trigger does not know the receiver's address. *)

type shield

val build : I3.Host.t -> Rng.t -> hops:int -> shield
(** Install a [hops]-long chain of id-to-id triggers terminating at the
    host (all soft state owned — and refreshed — by the host itself).
    @raise Invalid_argument if [hops < 1]. *)

val entry_id : shield -> Id.t
(** The identifier the receiver advertises; senders use it like any id. *)

val chain_ids : shield -> Id.t list
(** Entry to exit, for inspection/tests. *)

val exit_server_only_knows_addr :
  Transport.Deployment.t -> shield -> bool
(** Diagnostic used by tests: true iff among all chain identifiers, only
    the last one's responsible server stores a trigger pointing at an
    address. *)

val tear_down : shield -> unit
