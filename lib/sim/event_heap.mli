(** Monomorphic binary min-heap specialized for engine events.

    Events are ordered by the integer key [(at, seq)]: earliest deadline
    first, FIFO among same-instant events.  The heap is a struct of
    arrays.  Three int arrays in heap order hold each event's [at], its
    [seq] and its pool slot, so a sift compares and moves only
    immediates: no pointer chase, no write barrier.  A slot pool holds
    what is not an int: each slot's call — a function and its two
    arguments, in three adjacent cells of one array — and its owner handle, plus the slot's heap position, so
    {!remove} takes an event out of the middle of the heap in O(log n).

    An event is a typed call [fn a b] rather than a closure, so a
    caller that passes a top-level [fn] and the receiver and packet as
    [a] and [b] allocates nothing per event once the arrays have grown
    to the queue's peak size.  A slot's arguments are cleared when its
    event is removed or cleared, and when its call returns unless that
    call queued a successor into the freed slot (whose arguments then
    replace them), so what they hold becomes collectable as soon as the
    event has left the queue.  Its [fn] stays until the slot is reused:
    pass a top-level function, and put the state in [a] and [b]. *)

type handle = private { mutable slot : int }
(** Names one queued event so it can be removed.  [slot] is the event's
    pool slot while it is queued and [-1] before and after. *)

val handle : unit -> handle
(** A fresh handle, not yet queued. *)

val none : handle
(** The handle of a one-shot event, which nobody can remove.  Never
    queued: pushing with it binds nothing, and removing it does
    nothing. *)

type t

val create : unit -> t

val length : t -> int
val is_empty : t -> bool

val push : t -> at:Time.t -> seq:int -> handle -> ('a -> 'b -> unit) -> 'a -> 'b -> unit
(** [push h ~at ~seq owner fn a b] queues the call [fn a b] at
    [(at, seq)].  A handle other than {!none} is bound to the event
    until it leaves the heap.  @raise Invalid_argument if [owner] is
    already queued. *)

val min_at : t -> Time.t
(** [at] of the earliest event; [max_int] when empty. *)

val fire : t -> unit
(** Remove the earliest event, unbinding its handle, then make its
    call and clear its slot, unless the call queued an event there.
    Does nothing when empty. *)

val remove : t -> handle -> unit
(** Take the handle's event out of the heap in O(log n), clearing its
    slot.  A no-op when the handle is not queued here: never pushed,
    already taken, removed or cleared, queued in another heap, or
    {!none}. *)

val clear : t -> unit
(** Drop every queued event, clearing all live slots so their
    arguments are immediately collectable. *)
