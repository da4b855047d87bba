(** Duplex flows over public + private triggers (Sec. IV-B).

    The paper's client/server pattern: the responder advertises one
    long-lived {e public} trigger (e.g. the hash of its DNS name); an
    initiator picks a fresh {e private} trigger id, installs it, and sends
    it through the public trigger; the responder answers with its own
    fresh private id; both then converse exclusively over the short-lived
    private triggers.  Because each endpoint's reachability is a trigger
    it owns, either side can {!I3.Host.move} mid-flow and the session
    survives — this is the substrate of the ROAM mobility work the paper
    cites (Sec. VII).

    A host runs at most one {!manager}; the manager owns the host's
    receive handler and demultiplexes sessions by their private ids. *)

type manager
type t
(** One endpoint of an established session. *)

val manager : I3.Host.t -> Rng.t -> manager
(** Take over the host's receive path. *)

val listen :
  manager -> public:Id.t -> on_accept:(t -> unit) -> unit
(** Serve the public trigger: each handshake yields a fresh session. *)

val connect : manager -> public:Id.t -> on_ready:(t -> unit) -> unit
(** Open a session through a responder's public trigger; [on_ready] fires
    when the responder's private id arrives. *)

val send : t -> string -> unit
(** Send application data over the peer's private trigger.
    @raise Invalid_argument if the session is not yet established. *)

val on_data : t -> (string -> unit) -> unit
val close : t -> unit
(** Tear down this endpoint's private trigger (the peer's side times out
    via soft state). *)

val is_established : t -> bool
