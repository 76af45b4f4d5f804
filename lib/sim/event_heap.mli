(** Monomorphic binary min-heap specialized for engine events.

    The generic {!Heap} orders elements through a closure comparator,
    which costs an indirect call per comparison on the simulator's
    hottest path and, being polymorphic, boxes nothing but also inlines
    nothing.  This heap knows its element type: ordering is the inlined
    [(at, seq)] integer comparison (earliest deadline first, FIFO among
    same-instant events), with no function pointer in sight.

    Each event records its slot in [pos], so {!remove} takes an event
    out of the middle of the heap in O(log n).  Vacated slots are
    overwritten with a per-heap sentinel on [take], [pop], [remove] and
    [clear], so a fired or cancelled event's action closure — which can
    capture sockets, connections, whole simulation worlds — becomes
    collectable as soon as it leaves the queue. *)

type event = {
  at : Time.t;
  seq : int;
  action : unit -> unit;
  mutable pos : int;
      (** Slot index while queued; [-1] once taken, removed or cleared.
          Maintained by the heap: create events with [pos = -1]. *)
}

type t

val create : unit -> t

val length : t -> int
val is_empty : t -> bool

val push : t -> event -> unit

val peek : t -> event option
(** Earliest event without removing it. *)

val pop : t -> event option
(** Remove and return the earliest event.  The slot it occupied is
    cleared. *)

val top : t -> event
(** Option-free [peek] for the engine's hot loop: no allocation.
    Returns the heap's sentinel ([seq = -1], [pos = -1]) when empty —
    callers must check {!is_empty} first to distinguish. *)

val take : t -> event
(** Option-free [pop]: removes and returns the earliest event without
    boxing it, clearing the vacated slot.  Returns the sentinel when
    empty — check {!is_empty} first. *)

val remove : t -> event -> unit
(** Take [ev] out of the heap in O(log n), clearing its slot.  A no-op
    when [ev] is not queued here: already taken, removed or cleared, or
    queued in another heap. *)

val clear : t -> unit
(** Drop every queued event, overwriting all live slots with the
    sentinel so their action closures are immediately collectable. *)
