(** Discrete-event scheduler with a virtual clock (milliseconds).

    All i3 behaviour that the paper expresses in wall-clock terms — trigger
    refreshes every 30 s, Chord stabilization every 30 s, link latencies —
    runs against this clock, so tests and experiments are deterministic and
    fast. Events scheduled for the same instant fire in FIFO order. *)

type t

val create : unit -> t
val now : t -> float
(** Current virtual time in ms. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run an action [delay] ms from now. Negative delays are clamped to 0. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Run an action at an absolute time (clamped to [now] if in the past). *)

type timer

val every : t -> ?phase:float -> period:float -> (unit -> unit) -> timer
(** Periodic timer: first firing after [phase] (default [period]) ms, then
    every [period] ms until cancelled. @raise Invalid_argument if
    [period <= 0]. *)

val cancel : timer -> unit
(** Stop a periodic timer; idempotent. *)

val pending : t -> int
(** Number of queued events (cancelled timers may linger until their next
    tick). *)

val next_due : t -> float option
(** Timestamp of the earliest queued event, if any — what a sans-IO
    driver needs to re-arm its wall-clock timer after draining effects
    ([I3.Engine]'s [Set_timer]).  A cancelled periodic timer still
    occupies its slot until its tick, so the returned time is a lower
    bound on when real work is due. *)

val start_at : t -> float -> unit
(** Move the clock forward to an absolute time {e without} running
    anything: every queued event shifts by the same amount, as if it
    had been scheduled at that time instead.  This is how a component
    built on a fresh scheduler at time 0 joins a run that is already at
    time T: its periodic timers start at T rather than firing every
    period they "missed" since 0.  No-op for a time not in the
    future. *)

val run : t -> unit
(** Process events until the queue drains. Beware: periodic timers never
    drain; use {!run_until} with them. *)

val run_until : t -> float -> unit
(** Process events with timestamp <= the given absolute time, then advance
    the clock to exactly that time. *)

val run_for : t -> float -> unit
(** [run_for t d] is [run_until t (now t +. d)]. *)

val step : t -> bool
(** Process a single event; [false] if the queue was empty. *)
