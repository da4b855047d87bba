(** End-host library: the public i3 API of Fig. 1(a) on the simulator.
    Refresh, the sender cache, challenges and gateway failover are
    {!Endhost}'s rules (the wire's [Transport.Client] runs the same
    machine); this module carries its effects over a byte [Net] —
    {!Codec}-encoded frames out, decoded frames in, as over UDP — and
    arms its timer on the simulated clock.  A host knows its gateways
    (Sec. II-C); {!I3apps} builds multicast, anycast, mobility and
    service composition from [insert_trigger], [remove_trigger] and
    [send]. *)

type config = Endhost.config = {
  refresh_period_ms : float;
  cache_ttl_ms : float;
  ack_grace_ms : float;
}

val default_config : config
(** Refresh every {!Endhost.default_refresh_period_ms}, 60 s cache,
    90 s grace. *)

type t

val create :
  engine:Sim.Engine.t ->
  net:string Net.t ->
  rng:Rng.t ->
  site:int ->
  gateways:Packet.addr list ->
  ?config:config ->
  ?tracer:Obs.Trace.t ->
  ?spans:Obs.Trace.t ->
  unit ->
  t
(** Attach a host at a topology site. @raise Invalid_argument with no
    gateways.  A datagram that does not decode is dropped and counted
    in the net's [wire.decode_errors] (labels: the net's [instance],
    [proto="i3"]).  With a
    [tracer] every sent packet gets a trace id (subject to sampling)
    and every delivery records the terminal [Deliver] event; [spans]
    gets the control-plane operations {!Endhost.create} describes. *)

val addr : t -> Packet.addr
val site : t -> int
val engine : t -> Sim.Engine.t
(** The virtual clock this host lives on (for application-level timers). *)

val on_receive : t -> (stack:Packet.stack -> payload:string -> unit) -> unit
(** Application downcall for delivered packets; receives the rest of the
    identifier stack (service composition reads it, Sec. III-A). *)

(** {1 Triggers} *)

val insert_trigger : t -> Id.t -> unit
(** Insert [(id, [Saddr self])] and keep it refreshed until removed. *)

val insert_stack_trigger : t -> Id.t -> Packet.stack -> unit
(** Insert [(id, stack)] — the generalized trigger of Sec. II-E. *)

val insert_trigger_with_backup : t -> Id.t -> Id.t
(** Insert the primary trigger and a backup at [Id.antipode id] (stored on
    a different server w.h.p., Sec. IV-C); returns the backup id. *)

val remove_trigger : t -> Id.t -> unit
(** Remove (and stop refreshing) every binding this host owns for [id]. *)

val active_triggers : t -> Trigger.t list

(** {1 Sending} *)

val send : t -> ?refresh:bool -> Id.t -> string -> unit
(** Send [(id, data)]. The first packet toward an uncached prefix travels
    via a gateway with the refreshing flag set; once the responsible
    server's [Cache_info] arrives, packets go to it directly over a single
    overlay hop (Sec. IV-E). *)

val send_stack :
  t -> ?match_required:bool -> Packet.stack -> string -> unit
(** Send with an explicit identifier stack (source-route style,
    Sec. II-E). *)

val send_with_backup : t -> primary:Id.t -> backup:Id.t -> string -> unit
(** Send [(\[primary; backup\], data)]: if the primary's server died, the
    packet falls through to the backup trigger (Sec. IV-C). *)

(** {1 Mobility} *)

val move : t -> new_site:int -> unit
(** Acquire a new address at [new_site] and immediately re-insert all
    triggers pointing at the new address; senders are oblivious
    (Sec. II-D1). The old address stops receiving. *)

(** {1 Introspection} *)

val cached_server_for : t -> Id.t -> Packet.addr option
(** Current cache entry for an identifier's prefix, if fresh. *)

val gateway : t -> Packet.addr
(** Current gateway (rotates on persistent ack or [Cache_info] loss). *)

val new_private_id : t -> Id.t
(** A fresh random identifier for a private trigger (Sec. IV-B). *)
