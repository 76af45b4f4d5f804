(** Simulated time.

    All simulation timestamps and durations are integer nanoseconds.
    Using a plain [int] keeps arithmetic allocation-free (OCaml ints are
    63-bit on 64-bit platforms, enough for ~292 years of nanoseconds). *)

type t = int
(** A point in simulated time, in nanoseconds since simulation start. *)

type span = int
(** A duration in nanoseconds.  Durations and timestamps share the same
    representation; the distinct name documents intent in signatures. *)

val zero : t

val ns : int -> span
val us : int -> span
val ms : int -> span
val sec : int -> span

val of_us_float : float -> span
(** [of_us_float x] is [x] microseconds rounded to whole nanoseconds. *)


val to_ns : t -> int
val to_us : t -> float
val to_ms : t -> float
val to_sec : t -> float

val add : t -> span -> t
val diff : t -> t -> span
(** [diff a b] is [a - b]. *)

val compare : t -> t -> int
val min : t -> t -> t
val max : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns/µs/ms/s). *)

val to_string : t -> string
