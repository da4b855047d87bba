(** CSV and JSON output for the experiment harnesses, and the paper's
    capacity arithmetic.  Tables on stdout go through
    {!Obs.Sink.aligned_table}. *)

val csv : path:string -> header:string list -> string list list -> unit
(** Write rows as CSV. *)

val json : path:string -> header:string list -> string list list -> unit
(** Write rows as a JSON array of objects keyed by [header]; cells that
    parse as numbers are emitted as JSON numbers. *)

val scalability_rows :
  hosts:float -> triggers_per_host:float -> servers:float -> refresh_s:float ->
  (string * string) list
(** The Sec. VII back-of-the-envelope: triggers per server and refresh
    messages per second per server, for the paper's 10^9 hosts x 10
    triggers / 10^5 servers / 30 s numbers or any other inputs. *)

val insertion_capacity : insert_ns:float -> refresh_s:float -> float
(** Max triggers one server can sustain if each refresh costs [insert_ns]
    (the paper's "a server would be able to maintain up to ..." figure). *)
