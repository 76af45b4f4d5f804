type handle = Event_heap.handle

type t = {
  mutable clock : Time.t;
  mutable next_seq : int;
  queue : Event_heap.t;
}

(* Ordering (earliest deadline first, FIFO among same-instant events
   via [seq]) lives inside Event_heap's inlined comparison. *)
let create () = { clock = Time.zero; next_seq = 0; queue = Event_heap.create () }

let now t = t.clock

(* Every event draws its [seq] here, whichever function queued it, so
   the firing order does not depend on the form an event took. *)
let push t ~at owner fn a b =
  Event_heap.push t.queue ~at ~seq:t.next_seq owner fn a b;
  t.next_seq <- t.next_seq + 1

let check_at t ~at name =
  if Time.compare at t.clock < 0 then invalid_arg (name ^ ": time is in the simulated past");
  at

let check_after t ~after name =
  if after < 0 then invalid_arg (name ^ ": negative delay");
  Time.add t.clock after

(* A closure rides the heap as the call [run_thunk k ()]. *)
let run_thunk k () = k ()

let call_at t ~at fn a b = push t ~at:(check_at t ~at "Engine.call_at") Event_heap.none fn a b
let post_at t ~at k = push t ~at:(check_at t ~at "Engine.post_at") Event_heap.none run_thunk k ()
let post t ~after k = push t ~at:(check_after t ~after "Engine.post") Event_heap.none run_thunk k ()

let with_handle t ~at k =
  let h = Event_heap.handle () in
  push t ~at h run_thunk k ();
  h

let schedule_at t ~at k = with_handle t ~at:(check_at t ~at "Engine.schedule_at") k
let schedule t ~after k = with_handle t ~at:(check_after t ~after "Engine.schedule") k

let handle = Event_heap.handle

let arm t h ~after fn a b =
  if h == Event_heap.none then invalid_arg "Engine.arm: idle names no timer";
  if h.slot >= 0 then invalid_arg "Engine.arm: handle already pending";
  push t ~at:(check_after t ~after "Engine.arm") h fn a b

(* Cancellation is eager: the event leaves the heap now, so the heap
   only ever holds live events.  The heap acts only on a handle bound
   to one of its own slots, so a fired, cancelled or foreign handle is
   ignored. *)
let cancel t h = Event_heap.remove t.queue h

let idle = Event_heap.none
let is_pending (h : handle) = h.slot >= 0

let pending t = Event_heap.length t.queue

let step t =
  if Event_heap.is_empty t.queue then false
  else begin
    t.clock <- Event_heap.min_at t.queue;
    Event_heap.fire t.queue;
    true
  end

let rec run t = if step t then run t

let rec run_until t deadline =
  if
    (not (Event_heap.is_empty t.queue))
    && Time.compare (Event_heap.min_at t.queue) deadline <= 0
  then begin
    ignore (step t);
    run_until t deadline
  end
  else t.clock <- Time.max t.clock deadline
