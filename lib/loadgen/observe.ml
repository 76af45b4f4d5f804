(* Per-run observability state: one trace ring, one metrics registry,
   one residual tracker and the completed-request log that supplies the
   residual's ground truth.  The fleet engine owns the sampling tick;
   this module only holds state and turns it into a pure [output] at
   the end of the run, so results stay structurally comparable across
   runs and domains.  SLO attainment is not tracked in-run: it is one
   fold over the run's trace records ({!slo_fold}), fed from the ring,
   a sink or a trace file alike. *)

type config = {
  trace_capacity : int;
  sample_interval : Sim.Time.span;
  trace_sink : (Sim.Trace.record -> unit) option;
}

let default_config =
  {
    trace_capacity = 65536;
    sample_interval = Sim.Time.ms 1;
    trace_sink = None;
  }

type slo_report = {
  r_id : string;
  r_slo_us : float;
  r_total : int;
  r_violations : int;
  r_attainment : float;
  r_p50_us : float option;
  r_p95_us : float option;
  r_p99_us : float option;
  r_max_burn : float;
  r_final_burn : float;
  r_first_burn_us : float option;
}

(* One settling tracker per id: the envelope edges / churn bursts to
   re-converge from, plus the per-tick estimate and mode time series to
   judge re-convergence on.  Passive bookkeeping only — no engine
   interaction — so tracking settling cannot perturb a run. *)
type settle_tracker = {
  set_id : string;
  mutable edges_rev : float list;  (* edge instants, us *)
  mutable est_rev : (float * float) list;  (* (tick us, est latency us) *)
  mutable mode_rev : (float * float) list;  (* (tick us, nagle-on fraction) *)
}

type settle_report = {
  g_id : string;
  g_edge_us : float;
  g_end_us : float;  (* segment end: next edge or end of run *)
  g_steady_us : float option;  (* tail-median steady estimate of the segment *)
  g_settle_us : float option;  (* edge -> lasting in-band estimate *)
  g_mode_settle_us : float option;  (* edge -> lasting in-band mode fraction *)
  g_settled : bool;  (* both settle times found within the segment *)
}

type output = {
  records : Sim.Trace.record list;
  dropped_records : int;
  samples : Sim.Metrics.sample list;
  residual_pairs : E2e.Residual.pair list;
  residual : E2e.Residual.summary option;
  audits : Sim.Audit.report list;
  settling : settle_report list;
}

type t = {
  trace : Sim.Trace.t;
  metrics : Sim.Metrics.t;
  interval : Sim.Time.span;
  residual : E2e.Residual.t;
  audit : Sim.Audit.t;
  mutable audits : Sim.Audit.report list;
  mutable samples_rev : Sim.Metrics.sample list;
  settle : (string, settle_tracker) Table.t;
  (* Completed-request log as parallel growable arrays: completion
     times (nondecreasing — requests are logged at sim-now) and the
     prefix sums of their latencies, so [truth_over] answers any
     window in O(log n).  A linear newest-first walk here was
     quadratic over a whole run on static-batching configs, whose
     estimator window grows to span the entire run: every sampling
     tick re-walked every request completed so far. *)
  mutable req_at : float array;  (* completion time us, oldest first *)
  mutable req_prefix : float array;  (* length n+1; (i+1) = (i) + latency_us i *)
  mutable n_reqs : int;
}

let create (cfg : config) =
  if cfg.sample_interval <= 0 then
    invalid_arg "Observe.create: sample_interval must be positive";
  let trace = Sim.Trace.create ~capacity:cfg.trace_capacity () in
  Sim.Trace.set_enabled trace true;
  Sim.Trace.set_sink trace cfg.trace_sink;
  {
    trace;
    metrics = Sim.Metrics.create ();
    interval = cfg.sample_interval;
    residual = E2e.Residual.create ();
    audit = Sim.Audit.create ();
    audits = [];
    samples_rev = [];
    settle = Table.create ();
    req_at = [||];
    req_prefix = [| 0.0 |];
    n_reqs = 0;
  }

let trace t = t.trace
let metrics t = t.metrics
let interval t = t.interval
let audit t = t.audit

let finalize_audit t ~at =
  let reports = Sim.Audit.report t.audit ~at in
  t.audits <- reports;
  reports

(* A trace breadcrumb so the SLO fold ([e2ebench slo]/[report], tests)
   can recover each id's declared SLO from the records alone. *)
let declare_slo t ~at ~id ~slo_us =
  if (not (Float.is_finite slo_us)) || slo_us <= 0.0 then
    invalid_arg "Observe.declare_slo: slo_us must be positive and finite";
  Sim.Trace.event t.trace ~at ~id
    (Sim.Trace.Message { tag = "slo_declared"; detail = Printf.sprintf "%.17g" slo_us })

(* Append [x] at [n] to a growable float array, doubling it when full. *)
let push a n x =
  let a =
    if n < Array.length a then a
    else begin
      let a' = Array.make (Stdlib.max 1024 (2 * n)) 0.0 in
      Array.blit a 0 a' 0 n;
      a'
    end
  in
  a.(n) <- x;
  a

(* First index of the sorted [a.(0..n-1)] whose value exceeds [bound];
   a window [(from, upto]] is the index range between two of these. *)
let first_after a n bound =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) > bound then hi := mid else lo := mid + 1
  done;
  !lo

(* Error budget for an SLO judged at p99: 1% of requests may violate.
   Burn rate = (violation fraction over the window) / budget, so
   burn > 1 means the window is eating budget faster than sustainable
   ("The Site Reliability Workbook" multiwindow burn alerting). *)
let slo_budget = 0.01
let slo_burn_window_us = 10_000.0

let note_request ?(id = "client") t ~at ~latency =
  let latency_us = Sim.Time.to_us latency in
  let n = t.n_reqs in
  t.req_at <- push t.req_at n (Sim.Time.to_us at);
  t.req_prefix <- push t.req_prefix (n + 1) (t.req_prefix.(n) +. latency_us);
  t.n_reqs <- n + 1;
  Sim.Trace.event t.trace ~at ~id (Sim.Trace.Request_done { latency_us })

(* Mean latency of requests completing in [(from_us, upto_us]]. *)
let truth_over t ~from_us ~upto_us =
  let i = first_after t.req_at t.n_reqs from_us in
  let j = first_after t.req_at t.n_reqs upto_us in
  if j <= i then None
  else Some ((t.req_prefix.(j) -. t.req_prefix.(i)) /. float_of_int (j - i))

let note_residual t ~at ~window_us ~est_us =
  let at_us = Sim.Time.to_us at in
  match truth_over t ~from_us:(at_us -. window_us) ~upto_us:at_us with
  | Some truth_us ->
      E2e.Residual.observe t.residual ~at_us ~window_us ~est_us ~truth_us;
      Some truth_us
  | None -> None

let note_sample t s = t.samples_rev <- s :: t.samples_rev

(* {1 Settling-time tracker} *)

let settle_tracker_of t id =
  Table.find_or_add t.settle id (fun id ->
      { set_id = id; edges_rev = []; est_rev = []; mode_rev = [] })

let note_edge t ~id ~at =
  let tr = settle_tracker_of t id in
  tr.edges_rev <- Sim.Time.to_us at :: tr.edges_rev;
  (* Breadcrumb so offline tools can recompute settling from the
     trace file alone. *)
  Sim.Trace.event t.trace ~at ~id
    (Sim.Trace.Message { tag = "edge"; detail = Printf.sprintf "%.17g" (Sim.Time.to_us at) })

let note_settle t ~id ~at ~est_us ~nagle_frac =
  let tr = settle_tracker_of t id in
  let at_us = Sim.Time.to_us at in
  (match est_us with
  | Some v when Float.is_finite v -> tr.est_rev <- (at_us, v) :: tr.est_rev
  | Some _ | None -> ());
  if Float.is_finite nagle_frac then
    tr.mode_rev <- (at_us, nagle_frac) :: tr.mode_rev

(* Tolerances: an estimate has re-converged when it is back within
   ±25% (floored at 60 µs of absolute slack) of the segment's eventual
   steady value; the mode fraction within ±0.34 — wide enough that one
   per-conn group's ε-exploration flip in a small population does not
   count as unsettled.  The absolute floor matters at low latencies:
   per-tick aggregate estimator peeks read partial windows, so even an
   unsaturated steady state jitters by tens of µs tick to tick. *)
let settle_rel_tol = 0.25
let settle_abs_floor_us = 60.0
let mode_abs_tol = 0.34

let median = function
  | [] -> None
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    Some a.(Array.length a / 2)

(* Centered median-of-5 filter (window clamped at the ends).  Per-tick
   estimator peeks are spiky — a single partial window or one group's
   ε-exploration flip can double the aggregate for a tick — and a
   settling judgement on the raw series would never hold a band.  The
   median filter removes isolated excursions while adding only two
   ticks of lag, so genuine regime shifts still register. *)
let median5 arr =
  let n = Array.length arr in
  Array.init n (fun i ->
      let lo = Stdlib.max 0 (i - 2) and hi = Stdlib.min (n - 1) (i + 2) in
      let w = Array.sub arr lo (hi - lo + 1) in
      Array.sort compare w;
      w.(Array.length w / 2))

(* Time from [edge] until the (median-filtered) series stays within
   the band around its eventual steady value (tail median of the
   segment) for the rest of the segment.  The sample at exactly
   [seg_end] is excluded — events scheduled at the edge (churn epochs,
   envelope flips) run before the same-timestamp observation tick, so
   that sample already reflects the next regime.  [None] when the
   segment has too few samples or the series never holds the band. *)
let settle_of_series samples ~edge ~seg_end ~band =
  let seg =
    List.filter (fun (at, _) -> at > edge && at < seg_end) samples
  in
  let n = List.length seg in
  if n < 4 then (None, None)
  else begin
    let ats = Array.of_list (List.map fst seg) in
    let vals = median5 (Array.of_list (List.map snd seg)) in
    (* Steady value: median of the last quarter (at least 3 samples). *)
    let tail_n = Stdlib.max 3 (n / 4) in
    let tail = Array.to_list (Array.sub vals (n - tail_n) tail_n) in
    match median tail with
    | None -> (None, None)
    | Some steady ->
      let tol = band steady in
      let in_band v = Float.abs (v -. steady) <= tol in
      (* Earliest sample from which every later sample stays in band. *)
      let entry = ref None in
      Array.iteri
        (fun i v ->
          if in_band v then begin
            if !entry = None then entry := Some ats.(i)
          end
          else entry := None)
        vals;
      (Some steady, Option.map (fun at -> at -. edge) !entry)
  end

let judge_settle samples ~edge_us ~end_us ~kind =
  let band =
    match kind with
    | `Estimate ->
      fun steady ->
        Stdlib.max (settle_rel_tol *. Float.abs steady) settle_abs_floor_us
    | `Mode -> fun _ -> mode_abs_tol
  in
  settle_of_series samples ~edge:edge_us ~seg_end:end_us ~band

(* One report per edge-to-edge segment of [edges] (any order, repeats
   allowed), judging the [ests] series and, when not empty, the [modes]
   series; the last segment ends at [until_us]. *)
let settle_segments ~id ~edges ~ests ~modes ~until_us =
  (* An edge at (or past) the end of the run opens a zero-length
     segment with nothing to judge — drop it. *)
  let edges = List.filter (fun e -> e < until_us) (List.sort_uniq compare edges) in
  let rec segments = function
    | [] -> []
    | edge :: rest ->
      let seg_end = match rest with e :: _ -> e | [] -> until_us in
      (edge, seg_end) :: segments rest
  in
  List.map
    (fun (edge_us, end_us) ->
      let steady, settle = judge_settle ests ~edge_us ~end_us ~kind:`Estimate in
      let mode_settle =
        if modes = [] then None else snd (judge_settle modes ~edge_us ~end_us ~kind:`Mode)
      in
      {
        g_id = id;
        g_edge_us = edge_us;
        g_end_us = end_us;
        g_steady_us = steady;
        g_settle_us = settle;
        g_mode_settle_us = mode_settle;
        g_settled = settle <> None && (modes = [] || mode_settle <> None);
      })
    (segments edges)

let settle_reports t ~until_us =
  List.concat_map
    (fun (_, tr) ->
      settle_segments ~id:tr.set_id ~edges:tr.edges_rev ~ests:(List.rev tr.est_rev)
        ~modes:(List.rev tr.mode_rev) ~until_us)
    (Table.to_list t.settle)

(* {1 SLO observatory}

   One fold over trace records, whether they come from a run's ring,
   its sink or a trace file: a [slo_declared] breadcrumb declares an id
   and its SLO, a [Request_done] under a declared id feeds that id's
   histogram and completion log, and an ["edge"] breadcrumb marks a
   load discontinuity for offline settling.  Everything else, and
   anything under an undeclared id, is ignored. *)

type slo_entry = {
  e_id : string;
  mutable e_slo_us : float;  (* the latest declaration wins *)
  e_histo : Sim.Histo.t;
  mutable e_at : float array;  (* completion time us, in feed order *)
  mutable e_lat : float array;  (* latency us *)
  mutable e_n : int;
  mutable e_edges_rev : float list;  (* edge instants us *)
}

(* Declared ids, in declaration order. *)
type slo_fold = (string, slo_entry) Table.t

let slo_fold () = Table.create ()

let slo_fold_record f (r : Sim.Trace.record) =
  let declared = Table.find_opt f r.id in
  match (r.event, declared) with
  | Sim.Trace.Message { tag = "slo_declared"; detail }, _ -> (
    match float_of_string_opt detail with
    | Some slo_us when slo_us > 0.0 ->
      let e =
        Table.find_or_add f r.id (fun id ->
            { e_id = id; e_slo_us = slo_us; e_histo = Sim.Histo.create (); e_at = [||];
              e_lat = [||]; e_n = 0; e_edges_rev = [] })
      in
      e.e_slo_us <- slo_us
    | _ -> ())
  | Sim.Trace.Message { tag = "edge"; detail }, Some e -> (
    match float_of_string_opt detail with
    | Some at_us when Float.is_finite at_us -> e.e_edges_rev <- at_us :: e.e_edges_rev
    | Some _ | None -> ())
  | Sim.Trace.Request_done { latency_us }, Some e ->
    Sim.Histo.add e.e_histo latency_us;
    e.e_at <- push e.e_at e.e_n (Sim.Time.to_us r.at);
    e.e_lat <- push e.e_lat e.e_n latency_us;
    e.e_n <- e.e_n + 1
  | _ -> ()

(* Burn is evaluated at each completion t over the window (t - w, t]:
   the window's violating fraction over the budget. *)
let slo_report_of e =
  let n = e.e_n in
  (* viol.(i) = violations among the first i completions *)
  let viol = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    viol.(i + 1) <- viol.(i) + if e.e_lat.(i) > e.e_slo_us then 1 else 0
  done;
  let max_burn = ref 0.0 and final_burn = ref 0.0 and first = ref None in
  for i = 0 to n - 1 do
    let upto = e.e_at.(i) in
    let lo = first_after e.e_at n (upto -. slo_burn_window_us) in
    let total = i + 1 - lo in
    let burn =
      if total <= 0 then 0.0
      else float_of_int (viol.(i + 1) - viol.(lo)) /. float_of_int total /. slo_budget
    in
    if burn > !max_burn then max_burn := burn;
    final_burn := burn;
    if burn > 1.0 && !first = None then first := Some upto
  done;
  let q p = Sim.Histo.quantile e.e_histo p in
  {
    r_id = e.e_id;
    r_slo_us = e.e_slo_us;
    r_total = n;
    r_violations = viol.(n);
    r_attainment =
      (if n = 0 then 1.0 else 1.0 -. (float_of_int viol.(n) /. float_of_int n));
    r_p50_us = q 50.0;
    r_p95_us = q 95.0;
    r_p99_us = q 99.0;
    r_max_burn = !max_burn;
    r_final_burn = !final_burn;
    r_first_burn_us = !first;
  }

let slo_reports f = List.map (fun (_, e) -> slo_report_of e) (Table.to_list f)

(* Offline settling judges ground truth: each id's completions as
   1 ms-bucket mean latencies, segmented by its edges, the last
   segment ending just past the last completion. *)
let slo_settling f =
  List.concat_map
    (fun (_, e) ->
      if e.e_edges_rev = [] || e.e_n = 0 then []
      else begin
        let buckets = Hashtbl.create 256 in
        let last = ref 0.0 in
        for i = 0 to e.e_n - 1 do
          let b = int_of_float (e.e_at.(i) /. 1000.0) in
          let sum, k = Option.value (Hashtbl.find_opt buckets b) ~default:(0.0, 0) in
          Hashtbl.replace buckets b (sum +. e.e_lat.(i), k + 1);
          last := Float.max !last e.e_at.(i)
        done;
        let ests =
          List.sort
            (fun (a, _) (b, _) -> Float.compare a b)
            (Hashtbl.fold
               (fun b (sum, k) acc -> (((float_of_int b +. 0.5) *. 1000.0), sum /. float_of_int k) :: acc)
               buckets [])
        in
        settle_segments ~id:e.e_id ~edges:e.e_edges_rev ~ests ~modes:[] ~until_us:(!last +. 1.0)
      end)
    (Table.to_list f)

let output ?(until_us = 0.0) t =
  let until_us =
    (* Default: judge settling up to the last observed sample/edge. *)
    if until_us > 0.0 then until_us
    else
      List.fold_left
        (fun acc (_, tr) ->
          let m = function [] -> acc | (at, _) :: _ -> Stdlib.max acc at in
          Stdlib.max (m tr.est_rev) (m tr.mode_rev))
        0.0 (Table.to_list t.settle)
  in
  {
    records = Sim.Trace.records t.trace;
    dropped_records = Sim.Trace.dropped t.trace;
    samples = List.rev t.samples_rev;
    residual_pairs = E2e.Residual.pairs t.residual;
    residual = E2e.Residual.summary t.residual;
    audits = t.audits;
    settling = settle_reports t ~until_us;
  }
