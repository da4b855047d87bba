(** Bounds-checked binary primitives shared by all wire codecs.

    Writers append big-endian values to a [Buffer.t].  Readers are
    cursors that never read past the end of the input and raise
    {!Malformed} on the first bad field; every accessor takes a [what]
    label naming the field for the message.  {!parse} is the one place
    that catches {!Malformed}, so a decoder is straight-line reads and
    its caller still gets a [result].  Integers are big-endian; floats
    travel as their IEEE-754 bit patterns. *)

exception Malformed of string

val fail : string -> 'a
(** Reject the frame being parsed with this message. *)

(** {1 Writing} *)

val put_u8 : Buffer.t -> int -> unit
val put_u16 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit

val put_u64 : Buffer.t -> int -> unit
(** The int sign-extended to 64 bits; {!u64} reads it back. *)

val put_f64 : Buffer.t -> float -> unit

val put_id : Buffer.t -> Id.t -> unit
(** The id's 32 raw bytes. *)

val put_str16 : Buffer.t -> string -> unit
(** u16 length prefix + bytes. @raise Invalid_argument beyond 65535. *)

val put_str32 : Buffer.t -> string -> unit
(** u32 length prefix + bytes.
    @raise Invalid_argument beyond {!Layout.max_data_payload} — nothing
    legal exceeds one datagram, so a longer string is an encoder bug. *)

val put_preamble : Buffer.t -> int -> unit
(** The 4-byte frame preamble: magic ["i3"], version, then [kind] (a
    control kind, or a data packet's flags). *)

val set_preamble : Bytes.t -> int -> unit
(** {!put_preamble} written at offset 0 of a frame being built. *)

(** {1 Reading} *)

type reader

val parse : string -> (reader -> 'a) -> ('a, string) result
(** [parse s f] runs [f] on a cursor at the start of [s]: [Ok] if it
    returns having consumed all of [s], [Error "trailing bytes"] if it
    leaves some, and [Error msg] if it raises [Malformed msg]. *)

type view
(** A borrowed slice of a reader's backing buffer — the zero-copy
    alternative to {!take}.  Valid as long as the backing string (which
    is immutable) is alive; materialize with {!view_to_string} or copy
    it out with {!blit_view}. *)

val view_length : view -> int

val view_to_string : view -> string
(** Copy the slice out (no copy if the view spans its whole backing
    string). *)

val blit_view : view -> Bytes.t -> int -> unit
(** [blit_view v b off] copies the viewed bytes into [b] at [off]. *)

val need : reader -> int -> string -> unit
(** [need r n what] checks [n] more bytes are available without
    consuming them. *)

val skip : reader -> int -> string -> unit
(** [skip r n what] consumes [n] bytes without reading them. *)

val u8 : reader -> string -> int
val u16 : reader -> string -> int
val u32 : reader -> string -> int

val u64 : reader -> string -> int
(** The low 63 bits: every u64 field on the wire carries an int. *)

val f64 : reader -> string -> float

val preamble : reader -> int
(** Consume and check {!put_preamble}'s 4 bytes ("bad magic", "bad
    version") and return the kind byte. *)

val take : reader -> int -> string -> string
(** [take r n what] consumes exactly [n] raw bytes. *)

val take_view : reader -> int -> string -> view
(** Like {!take}, but returns a borrowed slice instead of copying. *)

val sub : reader -> int -> string -> (reader -> 'a) -> 'a
(** [sub r n what f] consumes [n] bytes and runs [f] on a cursor
    bounded to exactly those bytes (sharing the backing buffer), for
    decoding embedded length-prefixed blobs without materializing
    them; [f] must consume all [n]. *)

val id : reader -> string -> Id.t
(** Inverse of {!put_id}. *)

val str16 : reader -> string -> string
val str32 : reader -> string -> string

val list_of :
  reader -> count:int -> max:int -> string -> (reader -> 'a) -> 'a list
(** Read [count] elements with [f], rejecting [count < 0] or
    [count > max]. *)
