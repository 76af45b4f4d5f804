(** RESP2 — the Redis serialization protocol.

    Implemented for wire realism: the simulated Redis server and client
    exchange genuine RESP traffic, so message sizes (and hence what
    Nagle sees) match the paper's workload. *)

type value =
  | Simple of string  (** [+OK\r\n] *)
  | Error of string  (** [-ERR ...\r\n] *)
  | Integer of int  (** [:42\r\n] *)
  | Bulk of string option  (** [$5\r\nhello\r\n]; [None] is the nil bulk *)
  | Array of value list option  (** [*2\r\n...]; [None] is the nil array *)

val equal : value -> value -> bool
val pp : Format.formatter -> value -> unit

val encode : value -> string
(** Writes into one exact-size buffer sized by {!encoded_length}. *)

val shared_bulk_min : int
(** Bulks of at least this many bytes (2,048: the size above which
    OCaml allocates a string on the major heap) are sent as views of
    the caller's string by {!encode_slices}. *)

val encode_slices : value -> Tcp.Slice.t list
(** The wire bytes of a value as views whose concatenation is
    {!encode}'s string.  Each bulk of at least {!shared_bulk_min} bytes
    is a view of its own string, and everything else is written into
    one buffer the other views share; a value without such a bulk is
    one view of [encode v].  Client requests and server replies both
    encode through this. *)

val encoded_length : value -> int
(** [String.length (encode v)] without building the string. *)

val max_bulk_length : int
(** 512 MiB, Redis's default [proto-max-bulk-len]: the parser rejects
    a longer bulk string. *)

(** {2 Arrays of bulk strings}

    The pieces {!encode} writes a request with, for an encoder that
    writes a command without building its {!value} first.  Each
    [put_*] writes at a position and returns the position after it. *)

val bulk_length : string -> int
(** [encoded_length (Bulk (Some s))]. *)

val array_header_length : int -> int
(** [encoded_length] of the [*n\r\n] header of an [n]-element array. *)

val put_array_header : Bytes.t -> int -> int -> int
val put_bulk : Bytes.t -> int -> string -> int

(** Incremental parser for a TCP byte stream: feed arbitrary chunks,
    pop complete values as they become available.  It parses in place
    over its {!input} buffer, and a consumed value leaves nothing
    behind.  A bulk whose bytes are all of one buffered string, start
    to end, is returned as that string; any other bulk is copied out
    once. *)
module Parser : sig
  type t

  val create : unit -> t

  val feed : t -> string -> unit

  val input : t -> Tcp.Bytebuf.t
  (** The buffer {!next} parses from; a receive path fills it with
      {!Tcp.Socket.recv_into} instead of copying through {!feed}. *)

  val next : t -> (value option, string) result
  (** [Ok None] when the buffered bytes do not yet form a complete
      value; [Error _] on protocol violations (the malformed value stays
      buffered, so parsing cannot continue afterwards).  An integer that does not fit in an [int], and a bulk
      length above 512 MiB (Redis's [proto-max-bulk-len]), are
      violations. *)

  val buffered : t -> int
  (** Bytes fed but not yet consumed by returned values. *)
end

val parse_exactly : string -> (value, string) result
(** Parse a string expected to contain exactly one value. *)
