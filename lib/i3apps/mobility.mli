(** Host mobility on top of triggers (Sec. II-D1).

    Mobility in i3 needs no home agents: a host that acquires a new
    address simply rewrites its triggers from [(id, old)] to [(id, new)].
    {!Transport.Host.move} already performs the address change + re-insertion;
    this module adds flow-level helpers: keeping a named flow alive across
    moves, roaming itineraries on a schedule, and the observation windows
    tests use to show the sender never notices (including simultaneous
    moves of both endpoints, which the paper highlights as working because
    packets are routed by identifier, not address). *)

type flow

val establish :
  rng:Rng.t ->
  listener:Transport.Host.t ->
  sender:Transport.Host.t ->
  on_data:(string -> unit) ->
  flow
(** A one-way flow: the listener owns a private trigger, the sender
    addresses only its identifier. *)

val send : flow -> string -> unit
val received : flow -> int

val move_receiver : flow -> new_site:int -> unit
(** Relocate the listener; in-flight refreshes update the trigger and the
    sender keeps sending to the same id. *)

val move_sender : flow -> new_site:int -> unit
(** Relocating the sender needs no i3 action at all — included for
    symmetry and for the simultaneous-move test. *)

val roam :
  engine:Engine.t -> flow -> sites:int list -> dwell_ms:float -> unit
(** Schedule the receiver to hop through the given sites, one move per
    [dwell_ms] of virtual time. *)
