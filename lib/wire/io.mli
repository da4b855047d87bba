(** Bounds-checked binary primitives shared by all wire codecs.

    Writers append big-endian values to a [Buffer.t].  Readers are
    [result]-typed cursors that never raise and never read past the end
    of the input; every accessor takes a [what] label naming the field
    for the [Error] message.  Integers are big-endian; floats travel as
    their IEEE-754 bit patterns. *)

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result

(** {1 Writing} *)

val put_u8 : Buffer.t -> int -> unit
val put_u16 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit
val put_u64 : Buffer.t -> int64 -> unit
val put_f64 : Buffer.t -> float -> unit

val put_str16 : Buffer.t -> string -> unit
(** u16 length prefix + bytes. @raise Invalid_argument beyond 65535. *)

val put_str32 : Buffer.t -> string -> unit
(** u32 length prefix + bytes.
    @raise Invalid_argument beyond {!Layout.max_data_payload} — nothing
    legal exceeds one datagram, so a longer string is an encoder bug. *)

(** {1 Reading} *)

type reader

val reader : string -> reader

type view
(** A borrowed slice of a reader's backing buffer — the zero-copy
    alternative to {!take}.  Valid as long as the backing string (which
    is immutable) is alive; materialize with {!view_to_string} or write
    it out with {!add_view}. *)

val view_length : view -> int

val view_to_string : view -> string
(** Copy the slice out (no copy if the view spans its whole backing
    string). *)

val add_view : Buffer.t -> view -> unit
(** Append the viewed bytes to a buffer without an intermediate
    string. *)

val pos : reader -> int
(** Bytes consumed so far. *)

val remaining : reader -> int

val need : reader -> int -> string -> (unit, string) result
(** [need r n what] checks [n] more bytes are available without
    consuming them. *)

val u8 : reader -> string -> (int, string) result
val u16 : reader -> string -> (int, string) result
val u32 : reader -> string -> (int, string) result
val u64 : reader -> string -> (int64, string) result
val f64 : reader -> string -> (float, string) result

val take : reader -> int -> string -> (string, string) result
(** [take r n what] consumes exactly [n] raw bytes. *)

val take_view : reader -> int -> string -> (view, string) result
(** Like {!take}, but returns a borrowed slice instead of copying. *)

val sub_reader : reader -> int -> string -> (reader, string) result
(** [sub_reader r n what] consumes [n] bytes and returns a cursor
    bounded to exactly those bytes (sharing the backing buffer), for
    decoding embedded length-prefixed blobs without materializing
    them.  {!expect_end} on the sub-reader checks the blob was fully
    consumed. *)

val str16 : reader -> string -> (string, string) result
val str32 : reader -> string -> (string, string) result

val expect_char : reader -> char -> string -> (unit, string) result
val expect_end : reader -> (unit, string) result

val list_of :
  reader ->
  count:int ->
  max:int ->
  string ->
  (reader -> ('a, string) result) ->
  ('a list, string) result
(** Read [count] elements with [f], rejecting [count < 0] or
    [count > max]. *)
