(** Summary statistics used by the experiment harnesses.

    The paper reports 90th-percentile latency stretch (Figs. 8 and 9) and
    mean/standard deviation of microbenchmark timings (Sec. V-D). *)

val mean : float array -> float
(** Arithmetic mean. @raise Invalid_argument on empty input. *)

val stdev : float array -> float
(** Population standard deviation. *)

val percentile : float -> float array -> float
(** [percentile p xs] with [p] in \[0, 100\]: linear-interpolation
    percentile of the sorted data. Does not mutate [xs].
    @raise Invalid_argument on empty input or [p] out of range. *)

val median : float array -> float

type summary = {
  n : int;
  mean : float;
  stdev : float;
  min : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

val summarize : float array -> summary
(** One-pass summary of a non-empty sample. *)

val histogram : bins:int -> float array -> (float * float * int) array
(** [histogram ~bins xs] buckets the data into [bins] equal-width bins over
    \[min, max\]; each cell is [(lo, hi, count)]. *)
