(** Per-packet hop tracing and control-plane operations, as one event
    model.

    A trace id is allocated at send time ({!start}) and travels in the
    packet header (wire bytes 28–35; [Wire.Layout.off_trace] is the
    authoritative definition); every layer that touches the packet
    appends an event
    ({!record}).  Storage is a fixed ring buffer, so a collector is cheap
    enough to leave on.

    Control-plane work — a Chord lookup and its per-hop RPCs, a
    stabilize round, an end host's trigger refresh — is recorded in the
    same ring as {!Op} / {!Note} / {!Done} events keyed by an id from the
    same allocator ({!open_op}).

    Id [0] ({!none}) means "untraced" — {!record} on it is a no-op, so the
    hot path needs no branching at call sites. *)

type id = int

val none : id
(** The null trace id carried by untraced packets. *)

type kind =
  | Send  (** packet handed to the stack by the source host *)
  | Enqueue  (** accepted by the network for transmission *)
  | Relay  (** forwarded one overlay hop toward the id's owner *)
  | Cache_hit  (** answered from a trigger cache instead of routing *)
  | Trigger_match  (** matched one or more triggers at the owner *)
  | Deliver  (** handed to the receiving end host — terminal *)
  | Drop of string  (** dropped, with cause — terminal *)
  | Op of { op : string; parent : id }
      (** opens control-plane operation [op] (e.g. ["chord.lookup"]);
          the event's [trace] is the operation's id.  [parent] is the
          enclosing operation, the packet trace that provoked it, or
          {!none} *)
  | Note of string  (** annotates an open operation *)
  | Done of string
      (** closes an operation: ["ok"], ["timeout"] or ["error:<why>"] *)

type event = {
  trace : id;
  time : float;  (** virtual ms *)
  site : int;
      (** topology site of the component recording the event; [0] for
          operation events *)
  kind : kind;
}

type t
(** A collector. *)

val disabled : t
(** Records nothing, allocates nothing; {!start} returns {!none}. *)

val create : ?capacity:int -> unit -> t
(** Ring buffer of [capacity] events (default 65536); every {!start}
    is traced. *)

val enabled : t -> bool

val start : t -> id
(** Allocate a trace id for a packet about to be sent, or {!none} when the
    collector is disabled.  Ids are positive and unique per collector. *)

val record : t -> id -> time:float -> site:int -> kind -> unit
(** Append an event; no-op when [id = none] or the collector is
    disabled. *)

val started : t -> int
(** Ids allocated so far, packet traces and operations alike. *)

val recorded : t -> int
(** Events recorded so far (including any since overwritten). *)

val events : ?trace:id -> t -> event list
(** Events still in the ring, oldest first (filtered to one trace if
    given). *)

type summary = {
  s_trace : id;
  sends : int;
  hops : int;  (** number of [Enqueue] events — network transmissions *)
  relays : int;
  delivers : int;
  drops : int;
  drop_causes : string list;
  first_time : float;
  last_time : float;
}

val summaries : t -> summary list
(** One summary per trace id present in the ring, ascending id. *)

val orphans : t -> summary list
(** Traces with no terminal event ([Deliver] or [Drop]), excluding those
    whose first event was already evicted from the ring (their history is
    incomplete, not necessarily orphaned).  A trace may still be in
    flight: filter on [s_trace] to keep only ids started before a
    cutoff. *)

val drain : t -> event list
(** Events still in the ring, oldest first, emptying the ring as a side
    effect.  Unlike {!reset} this preserves the id allocator, so a
    collector polling {!drain} periodically sees each event exactly once
    and never sees two packets share an id. *)

(** {1 Control-plane operations}

    An operation is an {!Op} event, any number of {!Note}s and one
    {!Done}, all carrying the operation's id.  The handle keeps racing
    timers from corrupting history: closing twice records one {!Done},
    and a note after the close records nothing. *)

type op
(** Handle on an operation: its id and whether it is still open. *)

val null_op : op
(** An already-closed handle: {!note} and {!close_op} on it are no-ops.
    Useful as the initial value of a mutable handle field. *)

val open_op : t -> ?parent:id -> time:float -> string -> op
(** Allocate an id (as {!start} does) and record its {!Op} event.  A
    disabled collector returns an inert handle. *)

val op_id : op -> id
(** The handle's id ({!none} iff inert). *)

val note : t -> op -> time:float -> string -> unit
(** Record a {!Note} while the operation is open. *)

val close_op : t -> ?status:string -> time:float -> op -> unit
(** Record the {!Done} event (status default ["ok"]) and close the
    handle; a no-op on a closed or inert handle. *)

val durations_ms : ?op:string -> t -> float array
(** [Done] time minus [Op] time of each closed operation whose {!Op}
    event is still in the ring, in close order (filtered to one
    operation name if given) — feed to [Stats.percentile]. *)

(** {1 Cross-process assembly}

    Every daemon in a fleet owns its own collector; a telemetry scraper
    drains each ring over the wire and joins the concatenated events on
    the trace id carried in the packet header (bytes 28–35,
    [Wire.Layout.off_trace]) into one causal hop tree per packet. *)

type tree = {
  a_trace : id;
  a_events : event list;
      (** ordered by time (ties by kind rank then site): the packet's
          path across the fleet *)
  a_sites : int list;  (** distinct sites touched, in first-seen order *)
  a_terminal : bool;  (** whether a [Deliver] or [Drop] was recorded *)
}

val assemble : event list -> tree list
(** Group events (typically drains from several processes) by trace id,
    ascending; untraced events ([none]) are discarded. *)

val kind_to_string : kind -> string
val reset : t -> unit
