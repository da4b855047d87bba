(** Declarative SLO rules evaluated over scraped time series.

    A monitor owns a {!Series.store} and a rule list.  Each {!scrape}
    samples the registry into the store, evaluates every rule against the
    windowed series, and folds the per-rule verdicts into an overall
    [Ok | Degraded | Violated].  The rule grammar:

    - {e signal} — what number to look at this scrape:
      [Latest] (current value of a gauge/counter/quantile sub-series),
      [Rate] (counter increase per second over a window), or
      [Ratio] (windowed delta of one counter over another, e.g.
      packets received / packets sent).
    - {e bound} — how to judge it: [At_least]/[At_most] with separate
      [ok] and [degraded] thresholds (between them is [Degraded], beyond
      is [Violated]), or [Stable_within] (max-min over a window ≤ eps,
      [Latest] signals only).

    A rule whose signal has no data yet (warm-up, no traffic in window)
    evaluates to [Ok] with [value = None] — absence of evidence never
    raises an alarm.  The transition of the overall verdict into
    [Violated] fires the {!on_violation} hook exactly once per breach
    episode; {!Sink} turns the hook's payload into a flight-recorder
    dump. *)

type verdict = Ok | Degraded | Violated

val verdict_to_string : verdict -> string

val worst : verdict -> verdict -> verdict

type signal =
  | Latest of { metric : string; labels : (string * string) list }
  | Rate of {
      metric : string;
      labels : (string * string) list;
      window_ms : float;
    }
  | Ratio of {
      num : string;
      num_labels : (string * string) list;
      den : string;
      den_labels : (string * string) list;
      window_ms : float;
    }  (** windowed delta of [num] divided by windowed delta of [den];
           no data when the denominator's delta is ≤ 0 *)

type bound =
  | At_least of { ok : float; degraded : float }  (** requires ok ≥ degraded *)
  | At_most of { ok : float; degraded : float }  (** requires ok ≤ degraded *)
  | Stable_within of { eps : float; window_ms : float }
      (** [Latest] signals only: max-min over the window ≤ eps is [Ok],
          beyond is [Violated] (no degraded band) *)

type rule = { rule : string;  (** display name *) signal : signal; bound : bound }

type evaluation = {
  rule : string;
  at : float;
  value : float option;  (** [None] = no data, judged [Ok] *)
  verdict : verdict;
}

type t

val create :
  ?series_capacity:int ->
  ?store:Series.store ->
  ?history_capacity:int ->
  rules:rule list ->
  Metrics.t ->
  t
(** [store] lets the monitor judge rules against an externally owned
    store (e.g. one fed by a wire scraper, see {!Scrape}) instead of a
    private one; [series_capacity] is then ignored.
    @raise Invalid_argument on malformed rules (inverted thresholds,
    [Stable_within] over a non-[Latest] signal). *)

val rules : t -> rule list
val store : t -> Series.store
val registry : t -> Metrics.t

val on_violation : t -> (evaluation list -> unit) -> unit
(** Called on each scrape whose overall verdict *enters* [Violated]
    (edge-triggered), with that scrape's evaluations. *)

val scrape : t -> time:float -> evaluation list
(** Sample the registry into the store, evaluate all rules, record the
    overall verdict in the history. *)

val ingest : t -> time:float -> Metrics.sample list -> evaluation list
(** Like {!scrape}, but over an externally produced snapshot instead of
    the local registry — the live-telemetry path: a collector decodes a
    remote daemon's wire snapshot, tags it with its origin, and the
    monitor judges the same rules against those series.  The local
    registry is not sampled. *)

val evaluate : t -> time:float -> evaluation list
(** Evaluate the rules against the store as it stands, without sampling
    anything first — for callers that feed {!store} directly (e.g. one
    monitor fed by several scrape responses per interval, evaluated once
    at the end). *)

val last : t -> evaluation list
(** Most recent scrape's evaluations ([[]] before the first scrape). *)

val overall : evaluation list -> verdict

val history : t -> (float * verdict) list
(** Per-scrape (time, overall verdict), oldest first, ring-bounded. *)

val counts : t -> int * int * int
(** Scrapes in history that were (ok, degraded, violated). *)

val first_breach_after : t -> float -> float option
(** Time of the first non-[Ok] scrape at or after the given time — the
    monitor's own detection time for a fault injected then. *)

val first_ok_after : t -> float -> float option
(** Time of the first [Ok] scrape at or after the given time — combined
    with {!first_breach_after}, the monitor's view of recovery. *)

val time_to_detect : t -> fault_at:float -> float option
(** Time from the fault to the first non-[Ok] scrape at or after it;
    [None] if the monitor never noticed. *)

val time_to_recover : t -> fault_at:float -> float option
(** Time from the fault to the first [Ok] scrape after the first
    breach; [None] without a breach or without recovery. *)
