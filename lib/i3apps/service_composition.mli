(** Service composition via identifier stacks (Sec. III-A, Fig. 4(a)).

    A sender (or receiver — see {!Heterogeneous_multicast}) lists the
    identifiers of third-party processing services ahead of the flow
    identifier; each service host receives the payload together with the
    rest of the stack, transforms it, and re-sends the packet along the
    remaining stack — the paper's WAP gateway transcoding HTML to WML is
    the canonical instance. *)

type service

val attach :
  Transport.Host.t -> service_id:Id.t -> transform:(string -> string) -> service
(** Dedicate a host as a processing service: it maintains the service
    trigger and forwards each transformed payload along the remaining
    identifier stack. The host's receive handler is taken over. *)

val service_id : service -> Id.t
val processed_count : service -> int

val send_via :
  Transport.Host.t -> services:Id.t list -> flow:Id.t -> string -> unit
(** Sender-driven composition: dispatch with stack
    [services @ [flow]]. @raise Invalid_argument if the stack would exceed
    {!I3.Packet.max_stack_depth}. *)
