(** Immutable views into strings.

    A slice names [len] bytes of [base] starting at [off].  Payload
    bytes cross the stack as slices: the send buffer, the retransmit
    queue, the wire segments and the receiver's buffer all share the
    one string the application wrote, and cutting a segment or trimming
    an acknowledged prefix makes a new view instead of a copy.  A write
    made of several strings travels as several views, so a large value
    crosses the stack as views of the caller's own string.  A slice
    keeps its whole [base] alive. *)

type t = private { base : string; off : int; len : int }

val empty : t
val of_string : string -> t
(** A view of the whole string; no copy. *)

val length : t -> int

val total_length : t list -> int
(** The summed length of a list of views. *)

val sub : t -> int -> int -> t
(** [sub t off len] is the view of bytes [off, off + len) of [t]; no
    copy.  Raises [Invalid_argument] when out of range. *)

val blit : t -> src_off:int -> Bytes.t -> dst_off:int -> len:int -> unit

val to_string : t -> string
(** The viewed bytes as a string: [base] itself when the view covers
    all of it, a copy otherwise. *)
