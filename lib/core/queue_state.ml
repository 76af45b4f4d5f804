(* A queue state is four floats — time, size, departures, integral —
   at some offset of a flat float array, so the step below overwrites
   them in place instead of allocating a boxed integral, and a caller
   holding several queues keeps them all in one array.  The time, size
   and departures are integers held exactly (below 2^53). *)
type t = float array

let slots = 4

let init_in a o ~at =
  a.(o) <- float_of_int at;
  a.(o + 1) <- 0.0;
  a.(o + 2) <- 0.0;
  a.(o + 3) <- 0.0

let create ~at =
  let t = Array.make slots 0.0 in
  init_in t 0 ~at;
  t

let[@inline] advance integral ~size ~since ~at =
  integral +. (float_of_int size *. float_of_int (Sim.Time.diff at since))

let size_in a o = int_of_float a.(o + 1)
let total_in a o = int_of_float a.(o + 2)

let track_in a o ~at nitems =
  let time = int_of_float a.(o) in
  if Sim.Time.compare at time < 0 then
    invalid_arg "Queue_state.track: time went backwards";
  let size = size_in a o in
  a.(o + 3) <- advance a.(o + 3) ~size ~since:time ~at;
  a.(o) <- float_of_int at;
  let nsize = size + nitems in
  if nsize < 0 then invalid_arg "Queue_state.track: size would become negative";
  a.(o + 1) <- float_of_int nsize;
  if nitems < 0 then a.(o + 2) <- a.(o + 2) -. float_of_int nitems

let track t ~at nitems = track_in t 0 ~at nitems
let size t = size_in t 0
let total t = total_in t 0

type share = { time : Sim.Time.t; total : int; integral : float }

(* The integral advanced to [at]: the current occupancy has persisted
   since the last update. *)
let[@inline] live_integral a o ~at =
  let time = int_of_float a.(o) in
  if Sim.Time.compare at time < 0 then
    invalid_arg "Queue_state.snapshot: time went backwards";
  advance a.(o + 3) ~size:(size_in a o) ~since:time ~at

let snapshot_in a o ~at =
  let integral = live_integral a o ~at in
  { time = at; total = total_in a o; integral }

let integral_into a o ~at dst i = dst.(i) <- live_integral a o ~at

let snapshot t ~at = snapshot_in t 0 ~at

type avgs = { q_avg : float; throughput : float; latency_ns : float option }

let get_avgs ~prev ~cur =
  let dt = Sim.Time.diff cur.time prev.time in
  if dt <= 0 then None
  else begin
    let d_total = cur.total - prev.total in
    let d_integral = cur.integral -. prev.integral in
    let q_avg = d_integral /. float_of_int dt in
    let throughput = float_of_int d_total /. Sim.Time.to_sec dt in
    let latency_ns =
      if d_total > 0 then Some (d_integral /. float_of_int d_total) else None
    in
    Some { q_avg; throughput; latency_ns }
  end
