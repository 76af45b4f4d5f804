(* Float-only, so a sample overwrites the fields in place instead of
   allocating boxed floats.  [samples] is a count, held exactly. *)
type t = {
  mutable srtt : float;  (* ns *)
  mutable rttvar : float;  (* ns *)
  mutable samples : float;
}

let min_rto = Sim.Time.ms 200
let max_rto = Sim.Time.sec 120
let initial_rto = Sim.Time.sec 1

let create () = { srtt = 0.0; rttvar = 0.0; samples = 0.0 }

(* RFC 6298: first sample sets SRTT = R, RTTVAR = R/2; afterwards
   RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R|, SRTT = 7/8 SRTT + 1/8 R. *)
let sample t r =
  if r < 0 then invalid_arg "Rtt.sample: negative RTT";
  let r = float_of_int r in
  if t.samples = 0.0 then begin
    t.srtt <- r;
    t.rttvar <- r /. 2.0
  end
  else begin
    t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt -. r));
    t.srtt <- (0.875 *. t.srtt) +. (0.125 *. r)
  end;
  t.samples <- t.samples +. 1.0

let srtt t = if t.samples = 0.0 then None else Some (int_of_float t.srtt)
let rttvar t = if t.samples = 0.0 then None else Some (int_of_float t.rttvar)

let rto t =
  if t.samples = 0.0 then initial_rto
  else begin
    let raw = int_of_float (t.srtt +. (4.0 *. t.rttvar)) in
    Stdlib.max min_rto (Stdlib.min max_rto raw)
  end

let samples t = int_of_float t.samples
