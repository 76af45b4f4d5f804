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

(* Every event draws its [seq] here, posted or scheduled, so the firing
   order does not depend on which of the two queued it. *)
let enqueue t ~at owner action =
  Event_heap.push t.queue ~at ~seq:t.next_seq owner action;
  t.next_seq <- t.next_seq + 1

let post_at t ~at action =
  if Time.compare at t.clock < 0 then
    invalid_arg "Engine.post_at: time is in the simulated past";
  enqueue t ~at Event_heap.none action

let post t ~after action =
  if after < 0 then invalid_arg "Engine.post: negative delay";
  enqueue t ~at:(Time.add t.clock after) Event_heap.none action

let schedule_at t ~at action =
  if Time.compare at t.clock < 0 then
    invalid_arg "Engine.schedule_at: time is in the simulated past";
  let h = Event_heap.handle () in
  enqueue t ~at h action;
  h

let schedule t ~after action =
  if after < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~at:(Time.add t.clock after) action

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
    let action = Event_heap.take t.queue in
    action ();
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
