(** Ablations of the design mechanisms the paper argues for.

    Each experiment toggles one mechanism and reports the metric the
    paper uses to justify it:

    - {b sender cache} (Sec. IV-E): overlay hops per data packet with and
      without the cached responsible-server address ("most packets are
      forwarded through only one server");
    - {b successor replication} (Sec. IV-C): packets lost in the window
      between a server failure and the owners' next refresh;
    - {b trigger constraints} (Sec. IV-J): time to admit an id-to-id
      trigger with checking on vs. off ("slows down trigger insertion
      slightly"), on the wall clock, so [i3_sim] prints it under
      [micro] and keeps [ablations] deterministic;
    - {b challenges} (Sec. IV-J3): virtual-time latency from a host's
      first insert to its acknowledgment ("an extra round trip of delay to
      some trigger insertions"). *)

type cache_result = {
  hops_with_cache : float;  (** mean overlay hops per packet *)
  hops_without_cache : float;
}

val sender_cache : ?seed:int -> unit -> cache_result
(** 20 flows of 10 packets each over 64 servers. *)

type replication_result = {
  delivered_with : int;
  delivered_without : int;
  attempts : int;  (** packets sent during the post-failure window *)
}

val replication : ?seed:int -> unit -> replication_result
(** 20 trials over 32 servers, one failure per trial. *)

type constraint_result = {
  ns_with_check : float;
  ns_without_check : float;
}

val constraints : ?seed:int -> unit -> constraint_result

type challenge_result = {
  ack_ms_with : float;  (** virtual ms from insert to ack *)
  ack_ms_without : float;
}

val challenges : ?seed:int -> unit -> challenge_result
