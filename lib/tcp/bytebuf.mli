(** Byte-stream FIFO carrying real payload bytes.

    Send and receive socket buffers and the RESP parser's input: a
    queue of immutable {!Slice.t} views.  Appending, taking, skipping
    and moving bytes to another buffer never copy payload; only
    {!read}, {!peek} and {!blit} do.  Carrying actual bytes (not just
    counts) lets the RESP protocol layer parse genuine traffic. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val append : t -> string -> unit
(** Queue the whole string as one slice; no copy. *)

val append_slice : t -> Slice.t -> unit

val take : t -> int -> Slice.t list
(** [take t n] removes [min n (length t)] bytes and returns them as
    views, front first: one sub-slice of each appended slice they
    touch, never a copy.  [[]] when nothing is taken. *)

val take_front : t -> int -> Slice.t
(** [take_front t n] removes and returns the view of up to [n] bytes
    that lie in the front slice — fewer than [n] when the front slice
    ends first.  A segment's first view costs one slice and no list
    cell this way; {!take} returns whatever follows. *)

val skip : t -> int -> unit
(** Discard up to [n] bytes without copying them. *)

val transfer : t -> dst:t -> int -> int
(** [transfer t ~dst n] moves up to [n] bytes from the front of [t] to
    the back of [dst] by relinking (or sub-slicing) slices; returns the
    number moved. *)

val blit : t -> src_off:int -> Bytes.t -> dst_off:int -> len:int -> unit
(** Copy [len] bytes starting [src_off] after the head, not consumed. *)

(** {2 Reading in place} *)

type cells = private Nil | Cons of { s : Slice.t; mutable next : cells }
(** The buffered bytes are the slices of {!cells}, front first, minus
    the first {!head_offset} bytes of the front slice.  No slice is
    empty.  A parser walks them to read without consuming, then
    {!skip}s what it used; it must not keep them across a change to
    the buffer. *)

val cells : t -> cells
val head_offset : t -> int

val read : t -> int -> string
(** [read t n] removes and returns [min n (length t)] bytes. *)

val read_all : t -> string

val peek : t -> int -> string
(** Like {!read} without consuming. *)

val drop : t -> int -> int
(** [drop t n] discards up to [n] bytes; returns the number dropped. *)

val total_appended : t -> int
(** Lifetime bytes appended — conservation checks in tests. *)

val total_consumed : t -> int
