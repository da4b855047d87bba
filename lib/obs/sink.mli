(** Render registry snapshots and trace sets.

    One writer per output shape; callers pick the sink, producers return
    data.  The JSON forms build on {!Json} — no external
    dependencies. *)

(** {1 Metrics} *)

val aligned_table : string list list -> unit
(** Column-aligned rendering of arbitrary rows (first row is usually a
    header) on stdout, for dashboards like [i3cluster top]. *)

val sample_to_json : Metrics.sample -> Json.t

(** {1 Traces} *)

val tree_to_json : Trace.tree -> Json.t
(** An assembled cross-process hop tree ({!Trace.assemble}):
    [{trace; sites; terminal; events}]. *)

(** {1 Series and health} *)

val series_to_json : ?tail:int -> Series.t -> Json.t
(** [{name; labels; points: [[at_ms, value]...]}], optionally only the
    last [tail] points. *)

val evaluation_to_json : Health.evaluation -> Json.t

val flight_record :
  at:float ->
  reason:string ->
  ?metrics:Metrics.sample list ->
  ?series:Series.t list ->
  ?spans:Trace.event list ->
  ?events:Trace.event list ->
  ?evaluations:Health.evaluation list ->
  unit ->
  Json.t
(** Assemble a flight-recorder dump: what the monitor saw ([evaluations]),
    the registry at the moment of violation ([metrics]), the recent past
    (the last 32 points of each of [series], control-plane operation events as [spans], packet
    trace [events]), all events in the {!tree_to_json} event shape
    (an [Op] event adds its [parent]). *)

(** {1 CSV primitives} *)

val csv_cell : string -> string
(** RFC-4180 escaping: cells containing commas, quotes, CR or LF are
    quoted with embedded quotes doubled; anything else passes through. *)

val csv_row : string list -> string
(** Comma-join of {!csv_cell}-escaped cells (no trailing newline). *)

val labels_to_string : (string * string) list -> string
(** ["k=v,k=v"]; [""] when empty. *)
