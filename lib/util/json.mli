(** Minimal hand-rolled JSON tree, emitter and parser — no external
    dependencies.

    Only what the observability layer needs: build a value, render it
    compactly (RFC 8259-valid output), write it to a file — and read one
    back, so the bench regression gate can diff a fresh [BENCH_i3.json]
    against the checked-in baseline. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** non-finite floats are emitted as [null] (JSON has no NaN/inf) *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no insignificant whitespace). *)

val to_file : path:string -> t -> unit
(** Write the compact rendering plus a trailing newline. *)

val lines_to_file : ?append:bool -> path:string -> t list -> unit
(** JSON-lines: one compact value per line.  [append] (default false)
    adds to an existing file instead of truncating — periodic telemetry
    flushes grow one file of snapshot generations. *)

(** {1 Parsing} *)

exception Parse_error of string

val of_string : string -> t
(** Parse one JSON value (surrounding whitespace allowed).  Numbers
    without ['.'] or an exponent become [Int] (falling back to [Float]
    beyond [int] range); [\u] escapes decode to UTF-8, surrogate pairs
    combined.  @raise Parse_error on malformed or trailing input. *)

val of_string_opt : string -> t option

val of_file : path:string -> t
(** @raise Parse_error on malformed content, [Sys_error] on I/O. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val path : t -> string -> t option
(** [path v "a.b.c"] descends nested objects by dotted key. *)

val to_float_opt : t -> float option
(** [Int] and [Float] as a float; [None] otherwise. *)
