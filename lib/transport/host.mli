(** The end-host API of Fig. 1(a) and the one driver of the
    {!I3.Endhost} machine, whose rules are refresh, the sender cache,
    challenges and gateway failover.  This module encodes its sends,
    decodes what arrives (a bad datagram is counted in
    [wire.decode_errors], [proto="i3"]), delivers to the application and
    counts the machine's notes ([client.sends/refreshes/timeouts/
    retries/gave_up/acks/delivers/data_sent]), all under the host's
    [instance].  A simulated host ({!create}) keeps one scheduler
    wake-up at the machine's next deadline; {!Client} paces one made by
    {!over} on UDP. *)

type config = I3.Endhost.config = {
  refresh_period_ms : float;
  cache_ttl_ms : float;
  ack_grace_ms : float;
}

val default_config : config
(** Refresh every {!I3.Endhost.default_refresh_period_ms}, 60 s cache,
    90 s grace. *)

type t

val create :
  engine:Engine.t ->
  net:string Net.t ->
  rng:Rng.t ->
  site:int ->
  gateways:I3.Packet.addr list ->
  ?config:config ->
  ?tracer:Obs.Trace.t ->
  ?spans:Obs.Trace.t ->
  unit ->
  t
(** A host on a fresh [Sim] endpoint at [site], on [engine]'s clock,
    counting in the net's registry under its label.  A [tracer] gives
    each sent packet a trace id (if sampled) and records each delivery;
    [spans] gets the operations {!I3.Endhost.create} describes.
    @raise Invalid_argument with no gateways. *)

val over :
  send:(int -> string -> unit) ->
  clock:(unit -> float) ->
  addr:int ->
  metrics:Obs.Metrics.t ->
  instance:string ->
  rng:Rng.t ->
  gateways:int list ->
  config ->
  t
(** A host sending from [addr] through [send], on [clock] (ms).  Its
    owner feeds it datagrams ({!decode}, then {!step} a [Frame]) and
    steps [Tick].  @raise Invalid_argument with no gateways. *)

val addr : t -> I3.Packet.addr
val now : t -> float

val engine : t -> Engine.t
val site : t -> int
(** A simulated host's scheduler and site.  @raise Invalid_argument on a
    host made by {!over}. *)

val on_receive : t -> (stack:I3.Packet.stack -> payload:string -> unit) -> unit
(** Application downcall for delivered packets; receives the rest of the
    identifier stack (service composition reads it, Sec. III-A). *)

val on_note : t -> (I3.Endhost.note -> unit) -> unit
(** Observe each of the machine's notes after it is counted. *)

val decode : t -> string -> I3.Message.t option
(** [None], counted in [wire.decode_errors], when it does not decode. *)

val step : t -> now:float -> I3.Endhost.event -> unit
(** Step the machine and spend its effects. *)

val send_message : t -> dst:int -> I3.Message.t -> unit
(** Encode and send a message outside the machine (a [Ping]). *)

val insert_trigger : t -> Id.t -> unit
(** Insert [(id, [Saddr self])] and keep it refreshed until removed. *)

val insert_stack_trigger : t -> Id.t -> I3.Packet.stack -> unit
(** Insert [(id, stack)] — the generalized trigger of Sec. II-E. *)

val insert_trigger_with_backup : t -> Id.t -> Id.t
(** Insert the primary trigger and a backup at [Id.antipode id] (stored on
    a different server w.h.p., Sec. IV-C); returns the backup id. *)

val remove_trigger : t -> Id.t -> unit
(** Remove (and stop refreshing) every binding this host owns for [id]. *)

val active_triggers : t -> I3.Trigger.t list

val send_packet : t -> I3.Packet.t -> unit
(** Send as prepared; a packet's own trace id is kept. *)

val send : t -> ?refresh:bool -> Id.t -> string -> unit
(** Send [(id, data)]. The first packet toward an uncached prefix travels
    via a gateway with the refreshing flag set; once the responsible
    server's [Cache_info] arrives, packets go to it directly over a single
    overlay hop (Sec. IV-E). *)

val send_stack :
  t -> ?match_required:bool -> I3.Packet.stack -> string -> unit
(** Send with an explicit identifier stack (source-route style,
    Sec. II-E). *)

val send_with_backup : t -> primary:Id.t -> backup:Id.t -> string -> unit
(** Send [(\[primary; backup\], data)]: if the primary's server died, the
    packet falls through to the backup trigger (Sec. IV-C). *)

val move : t -> new_site:int -> unit
(** Mobility (Sec. II-D1): a new address at [new_site], every trigger
    re-inserted pointing at it; the old address stops receiving.
    @raise Invalid_argument on a host made by {!over}. *)

val cached_server_for : t -> Id.t -> I3.Packet.addr option
(** Current cache entry for an identifier's prefix, if fresh. *)

val gateway : t -> I3.Packet.addr
(** Current gateway (rotates on persistent ack or [Cache_info] loss). *)

val new_private_id : t -> Id.t
(** A fresh random identifier for a private trigger (Sec. IV-B). *)
