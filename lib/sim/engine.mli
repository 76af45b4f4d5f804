(** Discrete-event simulation engine.

    A deterministic single-threaded event loop over simulated time.
    Events scheduled for the same instant fire in schedule order (FIFO),
    which makes every run bit-reproducible for a given seed and
    workload. *)

type t

type handle
(** Identifies a scheduled event so it can be cancelled: one small
    record per {!schedule}.  An event that nobody cancels is {!post}ed
    and has none. *)

val create : unit -> t
(** Fresh engine with the clock at {!Time.zero}. *)

val now : t -> Time.t
(** Current simulated time. *)

val post : t -> after:Time.span -> (unit -> unit) -> unit
(** [post t ~after f] runs [f] at [now t + after], for an event nobody
    will cancel: it costs nothing beyond [f] itself.  [after] must be
    non-negative.  @raise Invalid_argument on a negative delay. *)

val post_at : t -> at:Time.t -> (unit -> unit) -> unit
(** Absolute-time variant.  [at] must not be in the simulated past. *)

val schedule : t -> after:Time.span -> (unit -> unit) -> handle
(** Like {!post}, but returns a handle that can {!cancel} the event.
    Same-instant events fire in the order they were queued, posted or
    scheduled.  @raise Invalid_argument on a negative delay. *)

val schedule_at : t -> at:Time.t -> (unit -> unit) -> handle
(** Absolute-time variant.  [at] must not be in the simulated past. *)

val cancel : t -> handle -> unit
(** Cancel a pending event, removing it from the queue in O(log n).
    Cancelling an already-fired or already-cancelled event, or one
    scheduled on another engine, is a no-op. *)

val idle : handle
(** Names no event: never pending, and cancelling it does nothing.  A
    timer field holds it while disarmed, so arming overwrites the field
    instead of boxing each handle in an option. *)

val is_pending : handle -> bool
(** [true] from scheduling until the event fires or is cancelled. *)

val pending : t -> int
(** Number of events scheduled but not yet fired or cancelled. *)

val step : t -> bool
(** Fire the earliest pending event, advancing the clock to its time.
    Returns [false] when no events remain. *)

val run : t -> unit
(** Run until no events remain. *)

val run_until : t -> Time.t -> unit
(** Fire every event scheduled strictly before or at the given time,
    then advance the clock to exactly that time. *)
