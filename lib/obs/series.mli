(** Fixed-capacity time series scraped from a {!Metrics} registry.

    A {!store} is driven by an external scraper on the *virtual* clock —
    the caller decides the cadence and hands in the time, so this module
    stays clock-agnostic and usable both under the simulator and in
    offline replay.  Each scrape walks [Metrics.snapshot] and appends one
    point per sample to that sample's ring-buffer series; histograms are
    expanded into [.count]/[.p50]/[.p90]/[.p99] sub-series.

    Windowed queries ({!delta_over}, {!rate_per_sec}) are the raw
    material for {!Health} SLO rules. *)

type point = { at : float;  (** virtual ms *) value : float }

type t
(** One series: a named, labeled ring of points. *)

val name : t -> string
val labels : t -> (string * string) list

val length : t -> int
(** Points currently held (≤ capacity). *)

val points : t -> point list
(** Oldest first. *)

val latest : t -> point option

val push : t -> at:float -> float -> unit
(** Append a point, evicting the oldest when full.  Exposed for tests and
    hand-maintained series; scraped series are fed by {!scrape}. *)

val window : t -> now:float -> window_ms:float -> point list
(** Points with [at >= now - window_ms], oldest first. *)

val delta_over : t -> now:float -> window_ms:float -> float option
(** [last - first] over the window's points; [None] with fewer than two
    points in the window.  The windowed increase of a counter. *)

val rate_per_sec : t -> now:float -> window_ms:float -> float option
(** {!delta_over} divided by the elapsed seconds between the window's
    first and last points. *)

(** {1 Stores} *)

type store

val store : ?capacity:int -> unit -> store
(** [capacity] is per-series (default 512 points). *)

val scrape : store -> time:float -> Metrics.t -> unit
(** Sample every metric in the registry at virtual time [time].  Empty
    histograms contribute only their [.count] sub-series (quantiles of
    nothing are skipped, not NaN points). *)

val ingest : store -> time:float -> Metrics.sample list -> unit
(** Append the given samples at time [time] — {!scrape} over an
    externally produced snapshot instead of a local registry.  This is
    how wire-scraped telemetry (a remote daemon's [Stats_response])
    lands in a store: the collector decodes the snapshot, tags each
    sample with its origin, and ingests.  Labels are re-canonicalised
    here since remote snapshots may have been re-tagged in transit. *)

val scrapes : store -> int

val get : store -> ?labels:(string * string) list -> string -> t option

val all : store -> t list
(** Every series, sorted by name then labels. *)
