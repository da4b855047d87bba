(** One probe flow's bookkeeping: the single definition of "delivered"
    and "recovered" behind [Harness.Recovery]'s flows, in virtual time
    on the simulator and on wall clocks against real daemons (paper
    Secs. IV-C, V-C: soft state repairs every transient fault).

    A flow sends numbered probes through one identifier and counts the
    ones that come back.  The module is pure and clock-free: it does no
    I/O, and every call that needs the time takes [~now] from its
    driver. *)

type t

val create : metrics:Metrics.t -> name:string -> now:float -> t
(** Start a flow named [name] at [now].  Its [probe.sent] and
    [probe.received] counters in [metrics] carry the flow's {!labels}.
    @raise Invalid_argument if [metrics] already holds a flow of that
    name. *)

val labels : t -> (string * string) list
(** [[("flow", name)]]. *)

val next : t -> string
(** Count one more probe sent and return its payload,
    ["i3flow <name> <seq>"] with [seq] counting from 0. *)

val on_receive : t -> now:float -> string -> unit
(** Record a delivered payload at [now].  Each probe this flow sent
    counts once, whatever duplicates or reordering the network adds.
    Anything else is ignored: other flows' probes, seqs never sent,
    and payloads whose seq is not a plain decimal. *)

val stop : t -> now:float -> unit
(** Mark the flow's end at [now]; only the first call counts. *)

val sent : t -> int

val received : t -> int
(** Distinct probes delivered; never more than {!sent}. *)

val delivery_ratio : t -> float
(** [received / sent]; 1.0 before the first probe. *)

val time_to_recovery : t -> after:float -> float option
(** Time from [after] (typically the fault instant) to the first
    delivery at or after it; [None] if nothing arrived since. *)

val longest_outage : t -> now:float -> float
(** Longest gap between consecutive deliveries.  The flow's start and
    its stop (or [now] while it runs) count as deliveries. *)

val delivery_rule : ok:float -> degraded:float -> t -> Health.rule
(** The ["delivery"] rule: the flow's [probe.received] over
    [probe.sent] across the last 2 s, judged [At_least {ok; degraded}].
    Each substrate picks its thresholds. *)
