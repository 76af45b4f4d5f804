type lifecycle = Cold_start | Warm

(* The three local queues. *)
let unacked = 0
let unread = 1
let ackdelay = 2

(* The saved triples: the local window's baseline, and the remote
   window's baseline and latest accepted share. *)
let local_prev = 0
let remote_baseline = 1
let remote_latest = 2

(* The counters are overwritten in place, so an estimator allocates
   nothing that outlives a call after it is built.  [floats]: queue
   [q]'s {!Queue_state} at [queue_at q], then the saved triples'
   integrals.  The saved triples' times and departures are int fields:
   [lp_*] for the local window's baseline, [rb_*] and [rl_*] for the
   remote window's.  A saved triple's three shares share one time:
   local snapshots are taken at one instant, and a share on the wire
   carries one time. *)
type t = {
  floats : float array;
  mutable lp_time : Sim.Time.t;
  mutable lp_unacked : int;
  mutable lp_unread : int;
  mutable lp_ackdelay : int;
  mutable rb_time : Sim.Time.t;  (* -1 until the first accepted share *)
  mutable rb_unacked : int;
  mutable rb_unread : int;
  mutable rb_ackdelay : int;
  mutable rl_time : Sim.Time.t;  (* -1 until the first accepted share *)
  mutable rl_unacked : int;
  mutable rl_unread : int;
  mutable rl_ackdelay : int;
  mutable lifecycle : lifecycle;
  mutable last_share_at : Sim.Time.t;
      (* arrival time of the last *accepted* remote share, or creation
         time until the first one *)
  mutable staleness : Sim.Time.span;
      (* no accepted share within this span -> estimates are stale; -1 for none *)
  mutable rejected : int;
  mutable trace : (Sim.Trace.t * string) option;  (* ring, id *)
  mutable audit : (Sim.Audit.queue * Sim.Audit.queue * Sim.Audit.queue) option;
      (* (unacked, unread, ackdelay) Little's-law audit mirrors *)
}

let queue_at q = Queue_state.slots * q

(* Saved triple [w]'s integral of queue [q]. *)
let integral_slot w q = queue_at 3 + (3 * w) + q

(* The first accepted share sets the remote baseline, which is never
   cleared again. *)
let has_shares t = t.rb_time >= 0

let create ~at =
  let floats = Array.make (integral_slot 3 0) 0.0 in
  for q = 0 to 2 do
    Queue_state.init_in floats (queue_at q) ~at
  done;
  {
    floats;
    lp_time = at;
    lp_unacked = 0;
    lp_unread = 0;
    lp_ackdelay = 0;
    rb_time = -1;
    rb_unacked = 0;
    rb_unread = 0;
    rb_ackdelay = 0;
    rl_time = -1;
    rl_unacked = 0;
    rl_unread = 0;
    rl_ackdelay = 0;
    (* Estimators created with their run start Warm: their first window
       spans warmup, which the warmup-boundary [estimate] call already
       discards.  Only connections spawned mid-run (fleet churn) are
       marked [Cold_start] explicitly. *)
    lifecycle = Warm;
    last_share_at = at;
    staleness = -1;
    rejected = 0;
    trace = None;
    audit = None;
  }

let set_trace t tr ~id = t.trace <- Some (tr, id)

let set_cold_start t = t.lifecycle <- Cold_start
let lifecycle t = t.lifecycle
let is_cold t = t.lifecycle = Cold_start

let set_audit t au ~prefix =
  t.audit <-
    Some
      ( Sim.Audit.queue au (prefix ^ ".unacked"),
        Sim.Audit.queue au (prefix ^ ".unread"),
        Sim.Audit.queue au (prefix ^ ".ackdelay") )

let track t q ~at n = Queue_state.track_in t.floats (queue_at q) ~at n

(* The audit mirrors are passive bookkeeping (no engine interaction),
   so attaching them cannot perturb the run. *)
let track_unacked t ~at n =
  track t unacked ~at n;
  match t.audit with
  | Some (q, _, _) -> Sim.Audit.track q ~at n
  | None -> ()

let track_unread t ~at n =
  track t unread ~at n;
  match t.audit with
  | Some (_, q, _) -> Sim.Audit.track q ~at n
  | None -> ()

let track_ackdelay t ~at n =
  track t ackdelay ~at n;
  match t.audit with
  | Some (_, _, q) -> Sim.Audit.track q ~at n
  | None -> ()

let unacked_size t = Queue_state.size_in t.floats (queue_at unacked)
let unread_size t = Queue_state.size_in t.floats (queue_at unread)
let ackdelay_size t = Queue_state.size_in t.floats (queue_at ackdelay)

(* Scratch for a call to write floats into and read them back: the
   three queues' live integrals in slots 0-2 ([compute] writes them for
   [close_windows]), and in slots 3-5 the hint's share that [share]
   puts on the wire.  One per domain, since parallel sweeps run
   estimators on several domains at once. *)
let scratch_floats = Domain.DLS.new_key (fun () -> Array.make 6 0.0)

let share t ~at ~hint : Exchange.wire =
  let live = Domain.DLS.get scratch_floats in
  for q = unacked to ackdelay do
    Queue_state.integral_into t.floats (queue_at q) ~at live q
  done;
  (match hint with
  | Some h -> Hints.share_into h ~at live 3
  | None -> Array.fill live 3 3 Float.nan);
  {
    time = float_of_int at;
    unacked_total = float_of_int (Queue_state.total_in t.floats (queue_at unacked));
    unread_total = float_of_int (Queue_state.total_in t.floats (queue_at unread));
    ackdelay_total = float_of_int (Queue_state.total_in t.floats (queue_at ackdelay));
    unacked_integral = live.(unacked);
    unread_integral = live.(unread);
    ackdelay_integral = live.(ackdelay);
    hint_time = live.(3);
    hint_total = live.(4);
    hint_integral = live.(5);
  }

let local_snapshot t ~at = Exchange.to_triple (share t ~at ~hint:None)

let[@inline] integral t w q = t.floats.(integral_slot w q)

let remote_triple t w ~time ~unacked ~unread ~ackdelay : Exchange.triple =
  let share total q : Queue_state.share = { time; total; integral = integral t w q } in
  { unacked = share unacked 0; unread = share unread 1; ackdelay = share ackdelay 2 }

(* The latest remote share becomes the remote window's baseline. *)
let latest_to_baseline t =
  t.rb_time <- t.rl_time;
  t.rb_unacked <- t.rl_unacked;
  t.rb_unread <- t.rl_unread;
  t.rb_ackdelay <- t.rl_ackdelay;
  Array.blit t.floats (integral_slot remote_latest 0) t.floats
    (integral_slot remote_baseline 0) 3

(* A count or integral that is neither negative nor non-finite. *)
let[@inline] in_range x = x >= 0.0 && x < Float.infinity

let verdict t ~at (w : Exchange.wire) =
  if
    not
      (in_range w.time && in_range w.unacked_total && in_range w.unread_total
     && in_range w.ackdelay_total && in_range w.unacked_integral
     && in_range w.unread_integral && in_range w.ackdelay_integral)
  then "range"
  else if w.time > float_of_int at then "future"
  else if
    t.rl_time >= 0
    && (w.time < float_of_int t.rl_time
       || w.unacked_total < float_of_int t.rl_unacked
       || w.unread_total < float_of_int t.rl_unread
       || w.ackdelay_total < float_of_int t.rl_ackdelay
       || w.unacked_integral < integral t remote_latest unacked
       || w.unread_integral < integral t remote_latest unread
       || w.ackdelay_integral < integral t remote_latest ackdelay)
  then "regress"
  else ""

(* Corrupted or implausible shares must never poison the monotone
   counters: count, trace, and leave every window untouched. *)
let reject t ~at reason =
  t.rejected <- t.rejected + 1;
  match t.trace with
  | Some (tr, id) when Sim.Trace.enabled tr ->
    Sim.Trace.event tr ~at ~id (Share_rejected { reason })
  | _ -> ()

let ingest_wire t ~at (w : Exchange.wire) =
  match verdict t ~at w with
  | "" -> (
    (* The first-ever share anchors the remote window, exactly as
       [local_prev] anchors the local window at creation: until the first
       [estimate] both windows span creation-to-now, so pinning the
       baseline to the first share (rather than sliding it with every
       pre-estimate ingest) is what keeps the two vantage points' windows
       aligned.  Pinned by a regression test in test_exchange.ml. *)
    let first = not (has_shares t) in
    t.rl_time <- int_of_float w.time;
    t.rl_unacked <- int_of_float w.unacked_total;
    t.rl_unread <- int_of_float w.unread_total;
    t.rl_ackdelay <- int_of_float w.ackdelay_total;
    t.floats.(integral_slot remote_latest unacked) <- w.unacked_integral;
    t.floats.(integral_slot remote_latest unread) <- w.unread_integral;
    t.floats.(integral_slot remote_latest ackdelay) <- w.ackdelay_integral;
    if first then latest_to_baseline t;
    t.last_share_at <- at;
    match t.trace with
    | Some (tr, id) when Sim.Trace.enabled tr ->
        Sim.Trace.event tr ~at:t.rl_time ~id
          (Share_ingested
             {
               unacked_total = t.rl_unacked;
               unread_total = t.rl_unread;
               ackdelay_total = t.rl_ackdelay;
             })
    | _ -> ())
  | reason -> reject t ~at reason

let ingest_remote t ~at (tr : Exchange.triple) =
  if tr.unacked.time <> tr.unread.time || tr.unread.time <> tr.ackdelay.time then
    reject t ~at "skew"
  else ingest_wire t ~at (Exchange.of_triple tr)

let rejected_shares t = t.rejected
let last_share_at t = if has_shares t then t.last_share_at else -1

let set_staleness t ~timeout = t.staleness <- Option.value timeout ~default:(-1)
let staleness t = if t.staleness < 0 then None else Some t.staleness

let is_stale t ~at = t.staleness >= 0 && Sim.Time.diff at t.last_share_at > t.staleness

let remote_window t =
  if not (has_shares t) then None
  else
    Some
      ( remote_triple t remote_baseline ~time:t.rb_time ~unacked:t.rb_unacked
          ~unread:t.rb_unread ~ackdelay:t.rb_ackdelay,
        remote_triple t remote_latest ~time:t.rl_time ~unacked:t.rl_unacked
          ~unread:t.rl_unread ~ackdelay:t.rl_ackdelay )

type estimate = {
  latency_ns : float option;
  latency_local_ns : float option;
  latency_remote_ns : float option;
  throughput : float;
  window : Sim.Time.span;
  stale : bool;
}

(* Algorithm 2 on one queue: the mean delay of the [d_total] items that
   departed while the occupancy integral grew by [d_integral]; nan (the
   accumulator's "absent") when none departed. *)
let[@inline] delay d_total d_integral =
  if d_total > 0 then d_integral /. float_of_int d_total else Float.nan

let[@inline] local_delay t live q ~prev_total =
  delay
    (Queue_state.total_in t.floats (queue_at q) - prev_total)
    (live.(q) -. t.floats.(integral_slot local_prev q))

let[@inline] remote_delay t q ~baseline ~latest =
  delay (latest - baseline)
    (t.floats.(integral_slot remote_latest q) -. t.floats.(integral_slot remote_baseline q))

let[@inline] or_zero x = if Float.is_nan x then 0.0 else x

(* [Aggregate.known], inlined: passing it a float would box one even
   for [None]. *)
let[@inline] known x = if Float.is_nan x then None else Some x

(* [Float.max], written out so that it is inlined: a float passed to or
   returned from another module is boxed. *)
let[@inline] fmax (x : float) (y : float) =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if Float.is_nan x then x else y
  else if Float.is_nan y then y else x

(* One vantage point's end-to-end latency (paper §3.2): its own unacked
   delay less the peer's ack delay, plus both unread delays, clamped to
   non-negative; absent without an unacked delay. *)
let[@inline] combine ~unacked ~peer_ackdelay ~unread ~peer_unread =
  if Float.is_nan unacked then Float.nan
  else fmax (unacked -. or_zero peer_ackdelay +. or_zero unread +. or_zero peer_unread) 0.0

(* The estimate over the current windows, written into [a]'s [last_*]
   fields straight from [ints]/[floats]; returns the local window's
   length, nothing written when it is not positive.  The remote window
   counts once it spans time.  Both vantage points take the absent
   peer terms as zero, and the estimate is the larger of the two. *)
let compute t ~at (a : Aggregate.acc) =
  let live = Domain.DLS.get scratch_floats in
  for q = unacked to ackdelay do
    Queue_state.integral_into t.floats (queue_at q) ~at live q
  done;
  let window = Sim.Time.diff at t.lp_time in
  if window > 0 then begin
    let lu = local_delay t live unacked ~prev_total:t.lp_unacked
    and lr = local_delay t live unread ~prev_total:t.lp_unread
    and la = local_delay t live ackdelay ~prev_total:t.lp_ackdelay in
    let remote = has_shares t && Sim.Time.diff t.rl_time t.rb_time > 0 in
    let ru =
      if remote then remote_delay t unacked ~baseline:t.rb_unacked ~latest:t.rl_unacked
      else Float.nan
    and rr =
      if remote then remote_delay t unread ~baseline:t.rb_unread ~latest:t.rl_unread
      else Float.nan
    and ra =
      if remote then remote_delay t ackdelay ~baseline:t.rb_ackdelay ~latest:t.rl_ackdelay
      else Float.nan
    in
    let local_ns = combine ~unacked:lu ~peer_ackdelay:ra ~unread:lr ~peer_unread:rr in
    let remote_ns = combine ~unacked:ru ~peer_ackdelay:la ~unread:rr ~peer_unread:lr in
    a.last_local_ns <- local_ns;
    a.last_remote_ns <- remote_ns;
    a.last_latency_ns <-
      (if Float.is_nan local_ns then remote_ns
       else if Float.is_nan remote_ns then local_ns
       else fmax local_ns remote_ns);
    (* Departures per second; the divisor is [Sim.Time.to_sec window]. *)
    a.last_throughput <-
      float_of_int (Queue_state.total_in t.floats (queue_at unacked) - t.lp_unacked)
      /. (float_of_int window /. 1e9);
    a.last_window_ns <- float_of_int window
  end;
  window

(* Close the windows just computed (the live local end becomes the
   baseline, as does the latest remote share) and report whether the
   estimate stands: a cold start's first window is discarded. *)
let close_windows t ~at (a : Aggregate.acc) =
  let live = Domain.DLS.get scratch_floats in
  t.lp_time <- at;
  t.lp_unacked <- Queue_state.total_in t.floats (queue_at unacked);
  t.lp_unread <- Queue_state.total_in t.floats (queue_at unread);
  t.lp_ackdelay <- Queue_state.total_in t.floats (queue_at ackdelay);
  for q = unacked to ackdelay do
    t.floats.(integral_slot local_prev q) <- live.(q)
  done;
  (* The remote window advances too: the latest ingested share becomes
     the next window's baseline, keeping the two vantage points'
     windows aligned (modulo one network delay). *)
  if t.rl_time >= 0 then latest_to_baseline t;
  if t.lifecycle = Cold_start then begin
    (* The first window of a mid-run connection spans its slow-start
       ramp: a handful of samples over a tiny span.  Discard it —
       windows re-anchor at [at] — and report nothing, so a fresh
       connection cannot poison its group's aggregate. *)
    t.lifecycle <- Warm;
    false
  end
  else begin
    (match t.trace with
    | Some (tr, id) when Sim.Trace.enabled tr ->
        Sim.Trace.event tr ~at ~id
          (Estimate_computed
             {
               latency_us = Option.map (fun l -> l /. 1e3) (known a.last_latency_ns);
               throughput = a.last_throughput;
               window_us = a.last_window_ns /. 1e3;
             })
    | _ -> ());
    true
  end

(* The estimate into [a]'s [last_*] fields: [estimate] with [advance],
   [peek_estimate] without. *)
let estimate_into t ~at ~advance a =
  if advance then compute t ~at a > 0 && close_windows t ~at a
  else t.lifecycle <> Cold_start && compute t ~at a > 0

let fold t ~at ~advance a =
  estimate_into t ~at ~advance a && (Aggregate.add_last a; true)

(* [estimate] and [peek_estimate] compute here and allocate only their
   result. *)
let scratch = Domain.DLS.new_key Aggregate.acc

let to_estimate t ~at ~advance =
  let a = Domain.DLS.get scratch in
  if estimate_into t ~at ~advance a then
    Some
      {
        latency_ns = known a.last_latency_ns;
        latency_local_ns = known a.last_local_ns;
        latency_remote_ns = known a.last_remote_ns;
        throughput = a.last_throughput;
        window = int_of_float a.last_window_ns;
        stale = is_stale t ~at;
      }
  else None

let estimate t ~at = to_estimate t ~at ~advance:true
let peek_estimate t ~at = to_estimate t ~at ~advance:false
