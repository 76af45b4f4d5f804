(* Online Little's-law audit.  Each queue keeps the three quantities
   Little's law relates, measured independently of each other:

     L  — time-weighted occupancy integral / window length
     λ  — arrival count / window length
     W  — mean per-unit wait, measured by pairing departures with their
          arrival times through a FIFO of outstanding units

   In steady state L = λW; over a finite window the identity only
   fails by boundary terms (units in flight across the window edges),
   so |L − λW| relative error is an executable check that the queue
   accounting feeding the paper's Eq. (1) estimator matches ground
   truth.  Everything here is pure bookkeeping — no engine callbacks,
   no allocation on the occupancy path beyond the FIFO cells — so
   attaching an audit cannot change simulation results. *)

type waiter = { w_at : Time.t; mutable w_units : int }

type queue = {
  name : string;
  mutable occ : int;  (* current occupancy, units *)
  mutable integral : int;  (* ∫ occ dt since window start, unit·ns *)
  mutable last : Time.t;  (* time of the last occupancy change *)
  mutable window_start : Time.t;
  mutable arrivals : int;  (* units arrived since window start *)
  mutable departures : int;  (* units departed since window start *)
  mutable wait_ns : int;  (* Σ units × (departure − arrival), ns *)
  fifo : waiter Queue.t;  (* outstanding units, oldest first *)
}

(* [by_name] indexes [queues] so registering N queues costs O(N), not
   the O(N^2) of a list scan per registration. *)
type t = {
  mutable queues : queue list;  (* newest first *)
  by_name : (string, queue) Hashtbl.t;
}

let create () = { queues = []; by_name = Hashtbl.create 16 }

let queue t name =
  match Hashtbl.find_opt t.by_name name with
  | Some q -> q
  | None ->
      let q =
        {
          name;
          occ = 0;
          integral = 0;
          last = Time.zero;
          window_start = Time.zero;
          arrivals = 0;
          departures = 0;
          wait_ns = 0;
          fifo = Queue.create ();
        }
      in
      t.queues <- q :: t.queues;
      Hashtbl.add t.by_name name q;
      q

let occupancy q = q.occ

let advance q ~at =
  let dt = Time.diff at q.last in
  if dt > 0 then begin
    q.integral <- q.integral + (q.occ * dt);
    q.last <- at
  end

let arrival q ~at n =
  if n < 0 then invalid_arg "Audit.arrival: negative count";
  if n > 0 then begin
    advance q ~at;
    q.occ <- q.occ + n;
    q.arrivals <- q.arrivals + n;
    Queue.add { w_at = at; w_units = n } q.fifo
  end

let departure q ~at n =
  if n < 0 then invalid_arg "Audit.departure: negative count";
  if n > 0 then begin
    advance q ~at;
    q.occ <- q.occ - n;
    q.departures <- q.departures + n;
    (* Pair the departing units with the oldest outstanding arrivals.
       A drained-empty FIFO (over-departure) contributes zero wait
       rather than raising: the socket layer clamps its unit
       accounting the same way. *)
    let remaining = ref n in
    while !remaining > 0 && not (Queue.is_empty q.fifo) do
      let head = Queue.peek q.fifo in
      let take = Stdlib.min head.w_units !remaining in
      q.wait_ns <- q.wait_ns + (take * Time.diff at head.w_at);
      head.w_units <- head.w_units - take;
      remaining := !remaining - take;
      if head.w_units = 0 then ignore (Queue.pop q.fifo)
    done
  end

let track q ~at n = if n >= 0 then arrival q ~at n else departure q ~at (-n)

(* Start a fresh measurement window.  Occupancy and the outstanding
   FIFO carry over (the units are physically still queued); only the
   window accumulators reset.  Carried-over units count toward L but
   not λ, and their eventual wait includes pre-window time — classic
   boundary terms that vanish as the window grows. *)
let reset_window t ~at =
  List.iter
    (fun q ->
      advance q ~at;
      q.integral <- 0;
      q.arrivals <- 0;
      q.departures <- 0;
      q.wait_ns <- 0;
      q.window_start <- at)
    t.queues

type report = {
  queue : string;
  window_us : float;
  l_avg : float;  (* time-averaged occupancy *)
  lambda_per_s : float;  (* arrival rate *)
  w_us : float;  (* measured mean wait *)
  arrivals : int;
  departures : int;
  rel_err : float;  (* |L − λW| / max(L, λW), 0 when both ~ 0 *)
}

let report_queue q ~at =
  advance q ~at;
  let window = Time.diff at q.window_start in
  if window <= 0 then
    {
      queue = q.name;
      window_us = 0.0;
      l_avg = 0.0;
      lambda_per_s = 0.0;
      w_us = 0.0;
      arrivals = q.arrivals;
      departures = q.departures;
      rel_err = 0.0;
    }
  else begin
    let window_ns = float_of_int window in
    let l_avg = float_of_int q.integral /. window_ns in
    let lambda_per_ns = float_of_int q.arrivals /. window_ns in
    let w_ns =
      if q.departures = 0 then 0.0
      else float_of_int q.wait_ns /. float_of_int q.departures
    in
    let lw = lambda_per_ns *. w_ns in
    let denom = Float.max l_avg lw in
    let rel_err = if denom < 1e-12 then 0.0 else Float.abs (l_avg -. lw) /. denom in
    {
      queue = q.name;
      window_us = window_ns /. 1e3;
      l_avg;
      lambda_per_s = lambda_per_ns *. 1e9;
      w_us = w_ns /. 1e3;
      arrivals = q.arrivals;
      departures = q.departures;
      rel_err;
    }
  end

let report t ~at = List.rev_map (fun q -> report_queue q ~at) t.queues

let pp_report ppf r =
  Format.fprintf ppf "%s: L=%.3f lambda=%.1f/s W=%.2fus err=%.2f%%" r.queue r.l_avg
    r.lambda_per_s r.w_us (100.0 *. r.rel_err)
