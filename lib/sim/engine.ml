type handle = Event_heap.event

type t = {
  mutable clock : Time.t;
  mutable next_seq : int;
  queue : Event_heap.t;
}

(* Ordering (earliest deadline first, FIFO among same-instant events
   via [seq]) lives inside Event_heap's inlined comparison. *)
let create () = { clock = Time.zero; next_seq = 0; queue = Event_heap.create () }

let now t = t.clock

let schedule_at t ~at action =
  if Time.compare at t.clock < 0 then
    invalid_arg "Engine.schedule_at: time is in the simulated past";
  let ev = { Event_heap.at; seq = t.next_seq; action; pos = -1 } in
  t.next_seq <- t.next_seq + 1;
  Event_heap.push t.queue ev;
  ev

let schedule t ~after action =
  if after < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~at:(Time.add t.clock after) action

(* Cancellation is eager: the event leaves the heap now, so the heap
   only ever holds live events.  A fired, cancelled or foreign handle
   is not in this heap, and [remove] ignores it. *)
let cancel t (ev : handle) = Event_heap.remove t.queue ev

let idle = { Event_heap.at = Time.zero; seq = -1; action = ignore; pos = -1 }
let is_pending (ev : handle) = ev.pos >= 0

let pending t = Event_heap.length t.queue

(* The event loop uses Event_heap's option-free [take]/[top] so that
   dispatching an event allocates nothing at all — the per-event [Some]
   boxes of peek/pop were the loop's last allocations, and they are
   paid once per simulated event. *)
let step t =
  if Event_heap.is_empty t.queue then false
  else begin
    let ev = Event_heap.take t.queue in
    t.clock <- ev.at;
    ev.action ();
    true
  end

let rec run t = if step t then run t

let rec run_until t deadline =
  if
    (not (Event_heap.is_empty t.queue))
    && Time.compare (Event_heap.top t.queue).at deadline <= 0
  then begin
    ignore (step t);
    run_until t deadline
  end
  else t.clock <- Time.max t.clock deadline
