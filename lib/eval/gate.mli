(** Perf-regression gate: diff a fresh [BENCH_i3.json] against a
    checked-in baseline with per-metric tolerances.

    Each {!check} names a dotted JSON path (resolved with {!Json.path})
    and a direction: [Lower_better] fails when the current value exceeds
    [baseline * (1 + rel_tol) + abs_tol]-style slack, [Higher_better]
    when it falls below it, [Exact] when it strays beyond the slack in
    either direction.  Missing-from-current is a failure (the bench
    silently lost a metric); missing-from-baseline passes with a
    re-baseline nudge (a new metric cannot regress).

    {!default_checks} gates only metrics that are deterministic given
    the bench seeds and the virtual clock — never wall-clock rates,
    which vary by machine. *)

type direction = Higher_better | Lower_better | Exact

type check = {
  key : string;  (** dotted path into the bench JSON, e.g. ["delivery.ratio"] *)
  direction : direction;
  rel_tol : float;  (** fraction of |baseline| allowed as drift *)
  abs_tol : float;  (** absolute drift allowed on top *)
}

val check :
  ?rel_tol:float -> ?abs_tol:float -> direction:direction -> string -> check
(** Tolerances default to 0 (exact match required).
    @raise Invalid_argument on negative tolerances. *)

type result = {
  check : check;
  baseline : float option;
  current : float option;
  ok : bool;
  note : string;  (** human-readable verdict, e.g. ["REGRESSION: ..."] *)
}

val compare_json : baseline:Json.t -> current:Json.t -> check list -> result list

type relation = { lesser : string; greater : string }
(** A cross-key invariant judged within one file: the value at [lesser]
    must be strictly below the value at [greater]. *)

val relation : lesser:string -> greater:string -> relation
(** @raise Invalid_argument when the two keys are equal. *)

val check_relations : current:Json.t -> relation list -> result list
(** Judge relations against the current bench run alone (no baseline
    needed: the invariant must hold in every run).  Results render with
    the synthetic key ["lesser < greater"], the lesser value in
    [current] and the greater in [baseline].  A missing key fails. *)

val mode_mismatch : baseline:Json.t -> current:Json.t -> (string * string) option
(** The two files' top-level ["mode"] fields when they differ — comparing
    a smoke run against a full baseline is meaningless and should fail
    before any per-metric check. *)

val passed : result list -> bool

val render : result list -> unit
(** One stdout line per check: ok/FAIL, key, both values, note; then a
    summary line. *)

val default_checks : check list
(** Deterministic metrics only: delivery ratio, routing-hop percentiles,
    orphan count, span-latency percentiles, health verdict counts, and
    the substrate bakeoff's hop/state pins. *)

val default_relations : relation list
(** Koorde's O(1)-state claim: both bakeoff degrees hold strictly less
    routing state per node than classic Chord. *)
