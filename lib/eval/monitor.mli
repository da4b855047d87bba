(** A health monitor over a live {!Transport.Dynamic} deployment.

    Wires an {!Engine.scraper} timer to an {!Obs.Health} monitor: every
    [period] virtual ms the registry is sampled into time series and the
    SLO rules are judged.  When the overall verdict {e enters}
    [Violated], a flight-recorder dump (registry snapshot, series tails,
    recent control-plane operation and packet trace events, the
    triggering evaluations) is
    captured via {!Obs.Sink.flight_record}.

    The monitor reads only what the deployment publishes — metrics,
    operations, traces — never the simulator's ground truth, so
    {!time_to_detect} / {!time_to_recover} measure what an operator
    would actually have seen.  Compare them against
    {!Recovery.time_to_recovery} to quantify the observability gap:
    detection lags the fault by up to a scrape period plus the rule
    window; recovery may even {e lead} ground truth when the windowed
    delivery ratio clears while some probes are still being lost. *)

type t

(** {1 Rule presets}

    Building blocks for rule lists; all windows are virtual ms. *)

val lookup_p99_rule :
  ?ok:float -> ?degraded:float -> ring_label:string -> unit ->
  Obs.Health.rule
(** Cumulative lookup-latency p99 under a bound.  Sticky — a cumulative
    quantile never recovers — so use it as a whole-run SLO, not for
    recovery tracking. *)

val default_rules : ring_label:string -> Recovery.flow -> Obs.Health.rule list
(** The flow's {!Obs.Probe.delivery_rule} at [ok = 0.8],
    [degraded = 0.45], plus a rule on Chord RPC timeouts per second on
    the control ring ({!Transport.Dynamic.ring_label}; a healthy ring
    has none, 2 s window): both windowed, so verdicts recover when the
    deployment does. *)

(** {1 Lifecycle} *)

val create :
  ?period:float -> rules:Obs.Health.rule list -> Transport.Dynamic.t -> t
(** Attach a monitor and start scraping every [period] ms (default 500).
    At most 4 flight records are kept — one per breach episode, oldest
    first. *)

val stop : t -> unit
(** Cancel the scrape timer; idempotent.  History and dumps remain
    readable. *)

val health : t -> Obs.Health.t

(** {1 Results} *)

val dumps : t -> (float * Json.t) list
(** Flight records captured so far, oldest first. *)

val time_to_detect : t -> fault_at:float -> float option
(** {!Obs.Health.time_to_detect}, in virtual ms. *)

val time_to_recover : t -> fault_at:float -> float option
(** {!Obs.Health.time_to_recover}, in virtual ms. *)

(** {1 Live rendering} *)

val live_header : t -> string list
(** ["t (ms)"; "overall"; one column per rule]. *)

val live_row : t -> string list
(** Current row: time, overall verdict, then ["value verdict"] per rule
    from the latest scrape. *)
