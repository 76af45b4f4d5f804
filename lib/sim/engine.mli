(** Discrete-event simulation engine.

    A deterministic single-threaded event loop over simulated time.
    Events scheduled for the same instant fire in schedule order (FIFO),
    which makes every run bit-reproducible for a given seed and
    workload. *)

type t

type handle
(** Identifies a queued event so it can be cancelled: one small record,
    made by each {!schedule} or once by its owner for {!arm}.  An event
    that nobody cancels is {!post}ed and has none. *)

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

val call_at : t -> at:Time.t -> ('a -> 'b -> unit) -> 'a -> 'b -> unit
(** [call_at t ~at fn a b] makes the call [fn a b] at [at]: the call
    form of {!post_at}.  With a top-level [fn] (typically the receiver
    and the packet as [a] and [b]) the event allocates nothing.  Events
    fire in queue order whichever form they take.  [at] must not be in
    the simulated past. *)

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
    timer field holds it until the timer first arms and replaces it
    with its own {!handle}, so the field needs no option. *)

val handle : unit -> handle
(** A fresh handle for {!arm}, not yet pending.  A timer makes one the
    first time it arms and keeps it. *)

val arm : t -> handle -> after:Time.span -> ('a -> 'b -> unit) -> 'a -> 'b -> unit
(** [arm t h ~after fn a b] queues the call [fn a b] at [now t + after]
    under the caller's handle [h], which {!cancel} then names.  Once
    the event has fired or been cancelled, [h] can be armed again: a
    re-armed timer allocates nothing.
    @raise Invalid_argument if [h] is pending or {!idle}, or on a
    negative delay. *)

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
