(* Wall-clock and GC-counter measurement from outside the program. *)

type cost = {
  wall_s : float;
  minor : float;  (** words allocated in the minor heap *)
  promoted : float;  (** minor words promoted to the major heap *)
  major : float;  (** words allocated in the major heap, promotions included *)
}

(* Words the call allocated: each promoted word is counted by both the
   minor and the major counter, so subtract it once. *)
let alloc_words c = c.minor +. c.major -. c.promoted

(* GC counter deltas since [start], a [Gc.counters] reading. *)
let since (minor0, promoted0, major0) ~wall_s =
  let minor1, promoted1, major1 = Gc.counters () in
  { wall_s; minor = minor1 -. minor0; promoted = promoted1 -. promoted0; major = major1 -. major0 }

(* Times [f] after emptying the minor heap, so the GC counters repeat
   exactly for the same input.  With [full] (the default) a full major
   collection first clears the previous call's garbage; the major heap
   keeps its size between calls, so later calls do not pay to grow it
   again. *)
let measure ?(full = true) f =
  if full then Gc.full_major () else Gc.minor ();
  let start = Gc.counters () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  (r, since start ~wall_s)

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let peak_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words
