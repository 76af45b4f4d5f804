(* One queue state at offset 0 of its own flat array, so that
   [share_into] can write the integral without boxing it. *)
type t = float array

let tracker ~at =
  let t = Array.make Queue_state.slots 0.0 in
  Queue_state.init_in t 0 ~at;
  t

let create t ~at n =
  if n < 0 then invalid_arg "Hints.create: negative count";
  Queue_state.track_in t 0 ~at n

let complete t ~at n =
  if n < 0 then invalid_arg "Hints.complete: negative count";
  Queue_state.track_in t 0 ~at (-n)

let in_flight t = Queue_state.size_in t 0

let share t ~at = Queue_state.snapshot_in t 0 ~at

let share_into t ~at dst i =
  Queue_state.integral_into t 0 ~at dst (i + 2);
  dst.(i) <- float_of_int at;
  dst.(i + 1) <- float_of_int (Queue_state.total_in t 0)

let avgs ~prev ~cur = Queue_state.get_avgs ~prev ~cur
