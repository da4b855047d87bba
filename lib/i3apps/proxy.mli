(** Legacy-application proxy (Sec. IV-I).

    Unmodified UDP applications use i3 through a local proxy that
    translates between name-addressed datagrams and i3 packets: the proxy
    derives a public trigger id by hashing the service's DNS name,
    maintains triggers on behalf of local services, and transparently
    handles request/reply correlation over a private reply trigger — the
    applications never see identifiers. *)

type t

val create : Transport.Host.t -> Rng.t -> t
(** One proxy per host; it owns the host's receive path. *)

val expose : t -> name:string -> handler:(string -> string option) -> unit
(** Publish a local service under a DNS-style name; [handler] maps each
    request payload to an optional reply. *)

val public_id : name:string -> Id.t
(** The trigger identifier [expose] uses: [Id.name_hash name]. *)

val request :
  t -> name:string -> payload:string -> on_reply:(string -> unit) -> unit
(** Name-addressed request from a local legacy app; the reply, if any,
    arrives on the proxy's private reply trigger. *)

val send_oneway : t -> name:string -> string -> unit
(** Datagram with no reply expected. *)
