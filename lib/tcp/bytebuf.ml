(* A singly linked FIFO of slices, like [Stdlib.Queue] but open so that
   [transfer] can relink whole cells into another buffer. *)
type cells = Nil | Cons of { s : Slice.t; mutable next : cells }

type t = {
  mutable first : cells;
  mutable last : cells;
  mutable head_off : int;  (* consumed prefix of the front slice *)
  mutable len : int;
  mutable consumed : int;  (* lifetime; [len] more were appended *)
}

let create () =
  { first = Nil; last = Nil; head_off = 0; len = 0; consumed = 0 }

let length t = t.len
let is_empty t = t.len = 0
let clamp t n = Stdlib.max 0 (Stdlib.min n t.len)

(* Link a detached cell (its [next] is [Nil]) at the tail. *)
let link t cell n =
  (match t.last with Nil -> t.first <- cell | Cons c -> c.next <- cell);
  t.last <- cell;
  t.len <- t.len + n

let append_slice t s =
  let n = s.Slice.len in
  if n > 0 then link t (Cons { s; next = Nil }) n

let append t s = if String.length s > 0 then append_slice t (Slice.of_string s)

(* Unlink the front cell; the caller settles [len]/[consumed]. *)
let pop_front t =
  match t.first with
  | Nil -> ()
  | Cons c ->
    t.first <- c.next;
    (match c.next with Nil -> t.last <- Nil | Cons _ -> ());
    c.next <- Nil;
    t.head_off <- 0

(* The loops below are top-level functions, not local closures, so the
   per-segment and per-parse paths allocate nothing of their own. *)
let rec unlink t left =
  match t.first with
  | Cons c when left > 0 ->
    let avail = c.s.Slice.len - t.head_off in
    if left < avail then t.head_off <- t.head_off + left
    else begin
      pop_front t;
      unlink t (left - avail)
    end
  | Cons _ | Nil -> ()

let skip t n =
  let n = clamp t n in
  unlink t n;
  t.len <- t.len - n;
  t.consumed <- t.consumed + n

let rec blit_from cells from dst dst_off len =
  match cells with
  | Cons { s; next } when len > 0 ->
    let n = s.Slice.len in
    if from >= n then blit_from next (from - n) dst dst_off len
    else begin
      let k = Stdlib.min (n - from) len in
      Slice.blit s ~src_off:from dst ~dst_off ~len:k;
      blit_from next 0 dst (dst_off + k) (len - k)
    end
  | Cons _ | Nil -> ()

let blit t ~src_off dst ~dst_off ~len =
  if src_off < 0 || len < 0 || src_off + len > t.len then invalid_arg "Bytebuf.blit";
  blit_from t.first (src_off + t.head_off) dst dst_off len

let cells t = t.first
let head_offset t = t.head_off

let peek t n =
  let n = clamp t n in
  let buf = Bytes.create n in
  blit t ~src_off:0 buf ~dst_off:0 ~len:n;
  Bytes.unsafe_to_string buf

(* Remove and return the view of up to [n > 0] bytes of the front
   slice.  Each taken view is a sub-slice of one appended slice: a
   segment that coalesces several sends carries several views, never a
   gathered copy. *)
let front_view t n =
  match t.first with
  | Cons c ->
    let avail = c.s.Slice.len - t.head_off in
    let k = Stdlib.min n avail in
    let v = Slice.sub c.s t.head_off k in
    if k = avail then pop_front t else t.head_off <- t.head_off + k;
    t.len <- t.len - k;
    t.consumed <- t.consumed + k;
    v
  | Nil -> Slice.empty

let take_front t n = if n <= 0 then Slice.empty else front_view t n

let rec take_views t n =
  if n = 0 then []
  else
    let v = front_view t n in
    v :: take_views t (n - v.Slice.len)

let take t n = take_views t (clamp t n)

let rec move t dst left =
  match t.first with
  | Cons c as cell when left > 0 ->
    let avail = c.s.Slice.len - t.head_off in
    if t.head_off = 0 && left >= avail then begin
      pop_front t;
      link dst cell avail;
      move t dst (left - avail)
    end
    else begin
      let k = Stdlib.min left avail in
      append_slice dst (Slice.sub c.s t.head_off k);
      if k = avail then pop_front t else t.head_off <- t.head_off + k;
      move t dst (left - k)
    end
  | Cons _ | Nil -> ()

(* Moving the whole buffer relinks its chain of cells in one step,
   however many slices it holds. *)
let splice_all t dst =
  (match dst.last with Nil -> dst.first <- t.first | Cons c -> c.next <- t.first);
  dst.last <- t.last;
  dst.len <- dst.len + t.len;
  t.first <- Nil;
  t.last <- Nil

let transfer t ~dst n =
  let n = clamp t n in
  if n > 0 && n = t.len && t.head_off = 0 then splice_all t dst else move t dst n;
  t.len <- t.len - n;
  t.consumed <- t.consumed + n;
  n

(* A read inside the front slice can hand back that slice's whole
   string; only a read spanning slices gathers. *)
let read t n =
  let n = clamp t n in
  match t.first with
  | Cons c when c.s.Slice.len - t.head_off >= n -> Slice.to_string (take_front t n)
  | Cons _ | Nil ->
    let s = peek t n in
    skip t n;
    s
let read_all t = read t t.len

let drop t n =
  let n = clamp t n in
  skip t n;
  n

let total_appended t = t.consumed + t.len
let total_consumed t = t.consumed
