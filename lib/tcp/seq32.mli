(** 32-bit TCP sequence-number arithmetic (RFC 793 modular compare).

    The simulator tracks byte positions as full-width integers for
    clarity, but the wire codec and its tests exercise genuine wrapping
    sequence numbers through this module. *)

type t = private int
(** Always in [0, 2{^32}). *)

val of_int : int -> t
(** Truncates modulo 2{^32}. *)

val to_int : t -> int

val add : t -> int -> t
val sub : t -> t -> int
(** [sub a b] is the modular distance from [b] forward to [a], in
    [0, 2{^32}). *)

val compare : t -> t -> int
(** RFC 793 serial comparison: [a < b] iff [0 < sub b a < 2{^31}]. *)

val lt : t -> t -> bool
val leq : t -> t -> bool

val between : t -> low:t -> high:t -> bool
(** [between x ~low ~high]: does [x] lie in the half-open window
    [low, high) under serial arithmetic? *)
