(** Monomorphic binary min-heap specialized for engine events.

    Events are ordered by the integer key [(at, seq)]: earliest deadline
    first, FIFO among same-instant events.  The heap is a struct of
    arrays.  Three int arrays in heap order hold each event's [at], its
    [seq] and its pool slot, so a sift compares and moves only
    immediates: no pointer chase, no write barrier.  A slot pool holds
    what is not an int: each slot's action closure and its owner
    handle, plus the slot's heap position, so {!remove} takes an event
    out of the middle of the heap in O(log n).

    Pushing an event allocates nothing beyond the caller's closure once
    the arrays have grown to the queue's peak size.  A slot is cleared
    when its event is taken, removed or cleared, so the action closure
    — which can capture sockets, connections, whole simulation worlds —
    becomes collectable as soon as the event leaves the queue. *)

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

val push : t -> at:Time.t -> seq:int -> handle -> (unit -> unit) -> unit
(** [push h ~at ~seq owner action] queues [action] at [(at, seq)].  A
    handle other than {!none} is bound to the event until it leaves the
    heap.  @raise Invalid_argument if [owner] is already queued. *)

val min_at : t -> Time.t
(** [at] of the earliest event; [max_int] when empty. *)

val take : t -> (unit -> unit)
(** Remove the earliest event and return its action, clearing its slot
    and unbinding its handle.  Returns [ignore] when empty — check
    {!is_empty} first to tell the two apart. *)

val remove : t -> handle -> unit
(** Take the handle's event out of the heap in O(log n), clearing its
    slot.  A no-op when the handle is not queued here: never pushed,
    already taken, removed or cleared, queued in another heap, or
    {!none}. *)

val clear : t -> unit
(** Drop every queued event, clearing all live slots so their action
    closures are immediately collectable. *)
