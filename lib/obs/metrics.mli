(** Process-wide registry of named, labeled metrics.

    Every subsystem registers its counters, gauges and histograms here
    under a [<subsystem>.<event>] name plus a sorted label set (e.g.
    [("instance", "net3"); ("cause", "loss")]).  Handles are plain mutable
    records, so the hot path is a field write — no hashing after
    registration.  Reads go through {!snapshot}, the one uniform read API
    that replaced the per-module [stats] records.

    Registries are values: the shared {!default} serves the common case,
    while tests create private ones with {!create} to stay isolated. *)

type t
(** A registry. *)

type counter
(** Monotonically increasing integer. *)

type gauge
(** Instantaneous float, set or adjusted. *)

type histogram
(** Fixed-bucket histogram of float observations with quantile readout. *)

val create : unit -> t

val default : t
(** The shared process-wide registry. *)

(** {1 Registration}

    Re-registering the same name + label set returns the existing handle
    (so two components may share a counter deliberately).  Registering a
    name already claimed by a different metric kind raises
    [Invalid_argument]. *)

val counter : t -> ?labels:(string * string) list -> string -> counter
val gauge : t -> ?labels:(string * string) list -> string -> gauge

val histogram :
  t -> ?labels:(string * string) list -> buckets:float array -> string -> histogram
(** [buckets] are the upper bounds of the finite buckets, strictly
    increasing; an implicit overflow bucket catches the rest.
    @raise Invalid_argument on empty or non-increasing bounds. *)

(** {1 Mutation} *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val set : gauge -> float -> unit
val add : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit

(** {1 Histogram readout} *)

val hist_count : histogram -> int
val hist_sum : histogram -> float

val hist_mean : histogram -> float
(** [nan] when empty. *)

val quantile : histogram -> float -> float
(** [quantile h q] estimates the [q]-quantile ([0. <= q <= 1.]) by linear
    interpolation within the bucket that contains it, clamped to the
    observed [min, max] (so p50 of a single observation is that
    observation, not a bucket midpoint).

    An {e empty} histogram has quantile [0.] — pinned, not [nan], because
    snapshots serialize percentiles over the wire and decoded snapshots
    are compared structurally ([nan <> nan] would poison both).  The
    [max] field of a read {!value} is likewise [0.] when empty. *)

(** {1 Bucket helpers} *)

val linear_buckets : start:float -> width:float -> count:int -> float array
val exponential_buckets : start:float -> factor:float -> count:int -> float array

(** {1 Reading} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      count : int;
      sum : float;
      p50 : float;
      p90 : float;
      p99 : float;
      max : float;
    }

type sample = { name : string; labels : (string * string) list; value : value }

val snapshot : ?prefix:string -> t -> sample list
(** All samples (or those whose name starts with [prefix]), sorted by name
    then labels.  Labels come back in canonical (sorted-by-key) order. *)

val find :
  t -> ?labels:(string * string) list -> string -> value option
(** Point lookup of one metric's current value. *)

val reset : t -> unit
(** Zero every registered metric (handles stay valid).  For tests. *)

val remove : t -> ?labels:(string * string) list -> string -> unit
(** Drop one metric from the registry.  Outstanding handles keep working
    (they are plain records) but the sample no longer appears in
    {!snapshot} — and a later re-registration under the same key starts
    from zero.  Used by component teardown so a dead instance's gauges
    don't linger as ghosts. *)

val remove_where : t -> (name:string -> labels:(string * string) list -> bool) -> unit
(** Drop every metric matching the predicate, e.g. all samples carrying a
    given ["instance"] label when that instance is killed. *)

