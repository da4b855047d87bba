(** Reliable, ordered delivery over i3's best-effort service.

    i3 "implements neither reliability nor ordered delivery on top of IP"
    (Sec. II-C) — reliability is an end-to-end concern.  The paper's
    companion work builds a large-scale reliable multicast on i3 [20];
    this module provides the unicast building block: a selective-repeat
    ARQ with cumulative acknowledgments flowing back over a private
    trigger of the sender, and timer-driven retransmission in virtual
    time.  It doubles as a demonstration that conventional transports
    layer cleanly over identifiers instead of addresses (so the channel
    also survives either endpoint moving). *)

type receiver

val receiver : Transport.Host.t -> Rng.t -> on_data:(string -> unit) -> receiver
(** Dedicate a host as the receiving end; takes over its receive path.
    [on_data] fires exactly once per message, in send order. *)

val receiver_id : receiver -> Id.t
(** Identifier the sender addresses (the receiver's data trigger). *)

val received_count : receiver -> int

type sender

val sender :
  ?window:int ->
  ?rto_ms:float ->
  Transport.Host.t ->
  Rng.t ->
  dest:Id.t ->
  sender
(** Dedicate a host as the sending end. [window] (default 16) bounds
    unacknowledged messages; [rto_ms] (default 2000) is the retransmission
    timeout in virtual ms. *)

val send : sender -> string -> unit
(** Queue a message for reliable delivery. *)

val in_flight : sender -> int
(** Unacknowledged messages (0 once everything is delivered and acked). *)

val queued : sender -> int
(** Messages waiting for a window slot. *)

val retransmissions : sender -> int
(** Total retransmitted frames (observability for loss tests). *)
