type handle = { mutable slot : int }

let handle () = { slot = -1 }
let none = { slot = -1 }

type t = {
  mutable at : int array;  (** by heap position *)
  mutable seq : int array;  (** by heap position *)
  mutable slots : int array;  (** by heap position: the event's pool slot *)
  mutable action : (unit -> unit) array;  (** by slot; [ignore] when free *)
  mutable owner : handle array;  (** by slot; [none] for one-shot and free slots *)
  mutable pos : int array;
      (** by slot: the heap position while queued; a free slot holds
          [-2 - next], chaining the free slots ([next = -1] ends it) *)
  mutable size : int;
  mutable free : int;  (** first free slot; [-1] when all are in use *)
}

let create () =
  {
    at = [||];
    seq = [||];
    slots = [||];
    action = [||];
    owner = [||];
    pos = [||];
    size = 0;
    free = -1;
  }

let length h = h.size
let is_empty h = h.size = 0

(* Only called with every slot in use, so the new slots form the whole
   free chain. *)
let grow h =
  let cap = Array.length h.at in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  h.at <- extend h.at 0;
  h.seq <- extend h.seq 0;
  h.slots <- extend h.slots 0;
  h.action <- extend h.action ignore;
  h.owner <- extend h.owner none;
  h.pos <- extend h.pos (-1);
  for s = cap to ncap - 2 do
    h.pos.(s) <- -2 - (s + 1)
  done;
  h.free <- cap

let[@inline] before (at : int) (seq : int) at' seq' = at < at' || (at = at' && seq < seq')

(* The sifts below index arrays only at heap positions below [size] and
   at slots taken from [slots], both within the arrays' capacity, so
   they skip bounds checks.  Each carries the event [(at, seq, s)] up
   (or down) a hole starting at position [i], moving each displaced
   event one level, and places it once at the end; every placement
   updates [pos], so [pos] always names the position that holds each
   queued slot. *)
let sift_up h i at seq s =
  let ats = h.at and seqs = h.seq and slots = h.slots and pos = h.pos in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pat = Array.unsafe_get ats p and pseq = Array.unsafe_get seqs p in
    if before at seq pat pseq then begin
      let ps = Array.unsafe_get slots p in
      Array.unsafe_set ats !i pat;
      Array.unsafe_set seqs !i pseq;
      Array.unsafe_set slots !i ps;
      Array.unsafe_set pos ps !i;
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set ats !i at;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i s;
  Array.unsafe_set pos s !i

let sift_down h i at seq s =
  let ats = h.at and seqs = h.seq and slots = h.slots and pos = h.pos in
  let size = h.size in
  let i = ref i and moving = ref true in
  while !moving && (2 * !i) + 1 < size do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let c =
      if
        r < size
        && before (Array.unsafe_get ats r) (Array.unsafe_get seqs r) (Array.unsafe_get ats l)
             (Array.unsafe_get seqs l)
      then r
      else l
    in
    let cat = Array.unsafe_get ats c and cseq = Array.unsafe_get seqs c in
    if before cat cseq at seq then begin
      let cs = Array.unsafe_get slots c in
      Array.unsafe_set ats !i cat;
      Array.unsafe_set seqs !i cseq;
      Array.unsafe_set slots !i cs;
      Array.unsafe_set pos cs !i;
      i := c
    end
    else moving := false
  done;
  Array.unsafe_set ats !i at;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i s;
  Array.unsafe_set pos s !i

let push h ~at ~seq owner action =
  if owner.slot >= 0 then invalid_arg "Event_heap.push: handle already queued";
  if h.free < 0 then grow h;
  let s = h.free in
  h.free <- -2 - h.pos.(s);
  h.action.(s) <- action;
  if owner != none then begin
    h.owner.(s) <- owner;
    owner.slot <- s
  end;
  h.size <- h.size + 1;
  sift_up h (h.size - 1) at seq s

let min_at h = if h.size = 0 then max_int else h.at.(0)

(* Vacate position [i]: the last event fills the hole and sifts
   whichever way restores the heap. *)
let vacate h i =
  h.size <- h.size - 1;
  let last = h.size in
  if i < last then begin
    let at = h.at.(last) and seq = h.seq.(last) and s = h.slots.(last) in
    let p = (i - 1) / 2 in
    if i > 0 && before at seq h.at.(p) h.seq.(p) then sift_up h i at seq s
    else sift_down h i at seq s
  end

(* Return slot [s] to the free chain, dropping its closure and
   unbinding its handle. *)
let release h s =
  h.action.(s) <- ignore;
  let owner = h.owner.(s) in
  if owner != none then begin
    owner.slot <- -1;
    h.owner.(s) <- none
  end;
  h.pos.(s) <- -2 - h.free;
  h.free <- s

let take h =
  if h.size = 0 then ignore
  else begin
    let s = h.slots.(0) in
    let action = h.action.(s) in
    vacate h 0;
    release h s;
    action
  end

let remove h owner =
  let s = owner.slot in
  if s >= 0 && s < Array.length h.owner && h.owner.(s) == owner then begin
    vacate h h.pos.(s);
    release h s
  end

let clear h =
  for i = 0 to h.size - 1 do
    release h h.slots.(i)
  done;
  h.size <- 0
