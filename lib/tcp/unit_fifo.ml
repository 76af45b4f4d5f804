(* A singly linked FIFO whose cells are the entries themselves: one
   block per push, and the fifo is three words. *)
type cell =
  | Nil
  | Entry of {
      total_bytes : int;
      units : int;
      mutable drained : int;
      mutable credited : int;
      mutable next : cell;
    }

type t = { mutable head : cell; mutable tail : cell; mutable pending_bytes : int }

let create () = { head = Nil; tail = Nil; pending_bytes = 0 }

let push t ~bytes ~units =
  if bytes < 0 || units < 0 then invalid_arg "Unit_fifo.push: negative argument";
  if bytes > 0 || units > 0 then begin
    let cell = Entry { total_bytes = bytes; units; drained = 0; credited = 0; next = Nil } in
    (match t.tail with Nil -> t.head <- cell | Entry e -> e.next <- cell);
    t.tail <- cell;
    t.pending_bytes <- t.pending_bytes + bytes
  end

let pop t =
  match t.head with
  | Nil -> ()
  | Entry e ->
    t.head <- e.next;
    if e.next == Nil then t.tail <- Nil

(* Proportional crediting: after draining [drained] of [total] bytes an
   entry has earned [floor (units * drained / total)] units; whole-unit
   extents therefore complete exactly when their last byte drains.
   Returns the units newly credited to the head entry. *)
let credit = function
  | Nil -> 0
  | Entry e ->
    let earned = if e.total_bytes = 0 then e.units else e.units * e.drained / e.total_bytes in
    let fresh = earned - e.credited in
    e.credited <- earned;
    fresh

(* Zero-byte entries at the head complete immediately. *)
let rec pop_exhausted t credited =
  match t.head with
  | Entry e as cell when e.total_bytes - e.drained = 0 ->
    e.drained <- e.total_bytes;
    let credited = credited + credit cell in
    pop t;
    pop_exhausted t credited
  | Entry _ | Nil -> credited

let rec drain_from t remaining credited =
  if remaining <= 0 then credited
  else
    match t.head with
    | Nil -> credited
    | Entry e as cell ->
      let take = Stdlib.min (e.total_bytes - e.drained) remaining in
      e.drained <- e.drained + take;
      let credited = credited + credit cell in
      if e.drained = e.total_bytes then pop t;
      drain_from t (remaining - take) (pop_exhausted t credited)

let drain t ~bytes =
  if bytes < 0 then invalid_arg "Unit_fifo.drain: negative byte count";
  if bytes > t.pending_bytes then invalid_arg "Unit_fifo.drain: draining unpushed bytes";
  let credited = drain_from t bytes (pop_exhausted t 0) in
  t.pending_bytes <- t.pending_bytes - bytes;
  credited

let pending_bytes t = t.pending_bytes

let pending_units t =
  (* Units pushed minus units credited; partially drained head entries
     may already have credited a share. *)
  let rec go acc = function Nil -> acc | Entry e -> go (acc + (e.units - e.credited)) e.next in
  go 0 t.head
