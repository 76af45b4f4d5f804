type event = {
  at : Time.t;
  seq : int;
  action : unit -> unit;
  mutable pos : int;
}

type t = {
  mutable data : event array;
  mutable size : int;
  sentinel : event;  (** fills vacated and never-used slots *)
}

let create () =
  let sentinel = { at = Time.zero; seq = -1; action = ignore; pos = -1 } in
  { data = [||]; size = 0; sentinel }

let length h = h.size
let is_empty h = h.size = 0

(* Time.t and seq are plain ints, so this compiles to unboxed integer
   compares — the whole point of the specialization. *)
let[@inline] before (a : event) (b : event) =
  a.at < b.at || (a.at = b.at && a.seq < b.seq)

let grow h =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let ndata = Array.make ncap h.sentinel in
    Array.blit h.data 0 ndata 0 h.size;
    h.data <- ndata
  end

(* Every write of an event into a slot goes through [set], so [pos]
   always names the slot that holds the event. *)
let[@inline] set h i ev =
  h.data.(i) <- ev;
  ev.pos <- i

(* Both sifts carry [ev] down (or up) a hole starting at slot [i],
   moving each displaced event one level, and write [ev] once at the
   end. *)
let rec sift_up h i ev =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let p = h.data.(parent) in
    if before ev p then begin
      set h i p;
      sift_up h parent ev
    end
    else set h i ev
  end
  else set h i ev

let rec sift_down h i ev =
  let l = (2 * i) + 1 in
  if l >= h.size then set h i ev
  else begin
    let r = l + 1 in
    let c = if r < h.size && before h.data.(r) h.data.(l) then r else l in
    let child = h.data.(c) in
    if before child ev then begin
      set h i child;
      sift_down h c ev
    end
    else set h i ev
  end

let push h ev =
  grow h;
  h.size <- h.size + 1;
  sift_up h (h.size - 1) ev

let peek h = if h.size = 0 then None else Some h.data.(0)

(* Option-free accessors for the engine's event loop: with Time.t a
   plain int, [top]/[take] allocate nothing, where [peek]/[pop] box a
   [Some] per call — which was the engine's last per-event allocation.
   Callers must check [is_empty] first; on an empty heap both return
   the sentinel. *)
let top h = if h.size = 0 then h.sentinel else h.data.(0)

(* Vacate slot [i]: the last event fills the hole and sifts whichever
   way restores the heap.  The old last slot is cleared so no action
   closure lingers in the array. *)
let vacate h i =
  h.size <- h.size - 1;
  let last = h.data.(h.size) in
  h.data.(h.size) <- h.sentinel;
  if i < h.size then
    if i > 0 && before last h.data.((i - 1) / 2) then sift_up h i last
    else sift_down h i last

let take h =
  if h.size = 0 then h.sentinel
  else begin
    let top = h.data.(0) in
    vacate h 0;
    top.pos <- -1;
    top
  end

let pop h = if h.size = 0 then None else Some (take h)

let remove h ev =
  let i = ev.pos in
  if i >= 0 && i < h.size && h.data.(i) == ev then begin
    vacate h i;
    ev.pos <- -1
  end

let clear h =
  for i = 0 to h.size - 1 do
    h.data.(i).pos <- -1
  done;
  Array.fill h.data 0 h.size h.sentinel;
  h.size <- 0
