(* Index-addressed growable slot pool with a LIFO free list.

   The fleet keeps per-connection hot state here instead of in
   records chained through lists: slots live in one flat array, a
   connection is an [int] handle, and alloc/free never allocate on
   the OCaml heap once the backing array has grown to its high-water
   mark.  At 10^5..10^6 connections this is the difference between a
   minor-heap churn machine and a flat working set the GC scans once.

   Representation: [slots] holds the payloads ([dummy] in dead
   slots, so freed payloads are unreachable and can be collected),
   [live] marks occupancy a byte per slot, [free] is a LIFO stack of
   dead indices, built at the first [free].  Liveness is tracked
   explicitly rather than with an option payload so [get] on the hot
   path is a bounds check plus a flat load, no tag test or
   indirection. *)

type 'a t = {
  dummy : 'a;
  mutable slots : 'a array;
  mutable live : Bytes.t;  (* '\001' = live *)
  mutable free : int array;  (* LIFO stack of dead indices *)
  mutable free_top : int;    (* number of valid entries in [free] *)
  mutable used : int;        (* indices ever handed out: 0..used-1 *)
  mutable n_live : int;
}

let create ?(capacity = 16) ~dummy () =
  let capacity = max capacity 1 in
  {
    dummy;
    slots = Array.make capacity dummy;
    live = Bytes.make capacity '\000';
    free = [||];
    free_top = 0;
    used = 0;
    n_live = 0;
  }

let capacity t = Array.length t.slots
let live t = t.n_live
let is_live t i = Bytes.get t.live i = '\001'
let in_use t i = i >= 0 && i < t.used && is_live t i

let grow t =
  let cap = Array.length t.slots in
  let cap' = 2 * cap in
  let slots' = Array.make cap' t.dummy in
  Array.blit t.slots 0 slots' 0 cap;
  t.slots <- slots';
  let live' = Bytes.make cap' '\000' in
  Bytes.blit t.live 0 live' 0 cap;
  t.live <- live'

let alloc t v =
  let i =
    if t.free_top > 0 then begin
      t.free_top <- t.free_top - 1;
      t.free.(t.free_top)
    end
    else begin
      if t.used = Array.length t.slots then grow t;
      let i = t.used in
      t.used <- t.used + 1;
      i
    end
  in
  t.slots.(i) <- v;
  Bytes.set t.live i '\001';
  t.n_live <- t.n_live + 1;
  i

let get t i =
  if not (in_use t i) then invalid_arg "Shard.Flat.get: dead slot";
  t.slots.(i)

let set t i v =
  if not (in_use t i) then invalid_arg "Shard.Flat.set: dead slot";
  t.slots.(i) <- v

let free t i =
  if not (in_use t i) then invalid_arg "Shard.Flat.free: dead slot";
  t.slots.(i) <- t.dummy;
  Bytes.set t.live i '\000';
  t.n_live <- t.n_live - 1;
  if t.free_top = Array.length t.free then begin
    let free' = Array.make (Array.length t.slots) 0 in
    Array.blit t.free 0 free' 0 t.free_top;
    t.free <- free'
  end;
  t.free.(t.free_top) <- i;
  t.free_top <- t.free_top + 1

let iter t ~f =
  for i = 0 to t.used - 1 do
    if is_live t i then f i t.slots.(i)
  done

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.used - 1 do
    if is_live t i then acc := f !acc i t.slots.(i)
  done;
  !acc
