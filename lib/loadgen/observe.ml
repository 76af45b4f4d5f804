(* Per-run observability state: one trace ring, one metrics registry,
   one residual tracker, the completed-request log that supplies the
   residual's ground truth, and the SLO observatory — streaming
   per-tenant latency histograms with sliding-window burn rates.  The
   fleet engine owns the sampling tick; this module only holds state and
   turns it into a pure [output] at the end of the run, so results
   stay structurally comparable across runs and domains. *)

type config = {
  trace_capacity : int;
  sample_interval : Sim.Time.span;
  trace_sink : (Sim.Trace.record -> unit) option;
  burn_window : Sim.Time.span;
  settling : bool;
}

let default_config =
  {
    trace_capacity = 65536;
    sample_interval = Sim.Time.ms 1;
    trace_sink = None;
    burn_window = Sim.Time.ms 10;
    settling = true;
  }

(* One SLO tracker per declared id (the whole run or a tenant).  The
   completion log mirrors the request log's layout: sorted completion
   times plus a violation prefix sum, so a sliding window is two binary
   searches. *)
type slo_tracker = {
  slo_id : string;
  slo_us : float;
  histo : Sim.Histo.t;
  mutable s_at : float array; (* completion time us, oldest first *)
  mutable s_viol : int array; (* length n+1: violations prefix sum *)
  mutable s_n : int;
  mutable burn_rev : (float * float) list; (* (tick us, burn rate) *)
  mutable max_burn : float;
  mutable final_burn : float;
  mutable first_burn_us : float option;
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
  r_burn : (float * float) list;
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
  slo : slo_report list;
  settling : settle_report list;
}

type t = {
  trace : Sim.Trace.t;
  metrics : Sim.Metrics.t;
  interval : Sim.Time.span;
  burn_window_us : float;
  residual : E2e.Residual.t;
  audit : Sim.Audit.t;
  mutable audits : Sim.Audit.report list;
  mutable samples_rev : Sim.Metrics.sample list;
  mutable slo_rev : slo_tracker list; (* declaration order, reversed *)
  slo_tbl : (string, slo_tracker) Hashtbl.t;
  settling_on : bool;
  mutable settle_rev : settle_tracker list; (* declaration order, reversed *)
  settle_tbl : (string, settle_tracker) Hashtbl.t;
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
  if cfg.burn_window <= 0 then
    invalid_arg "Observe.create: burn_window must be positive";
  let trace = Sim.Trace.create ~capacity:cfg.trace_capacity () in
  Sim.Trace.set_enabled trace true;
  Sim.Trace.set_sink trace cfg.trace_sink;
  {
    trace;
    metrics = Sim.Metrics.create ();
    interval = cfg.sample_interval;
    burn_window_us = Sim.Time.to_us cfg.burn_window;
    residual = E2e.Residual.create ();
    audit = Sim.Audit.create ();
    audits = [];
    samples_rev = [];
    slo_rev = [];
    slo_tbl = Hashtbl.create 8;
    settling_on = cfg.settling;
    settle_rev = [];
    settle_tbl = Hashtbl.create 8;
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

(* {1 SLO observatory} *)

let declare_slo t ~at ~id ~slo_us =
  if (not (Float.is_finite slo_us)) || slo_us <= 0.0 then
    invalid_arg "Observe.declare_slo: slo_us must be positive and finite";
  if not (Hashtbl.mem t.slo_tbl id) then begin
    let tr =
      {
        slo_id = id;
        slo_us;
        histo = Sim.Histo.create ();
        s_at = [||];
        s_viol = [| 0 |];
        s_n = 0;
        burn_rev = [];
        max_burn = 0.0;
        final_burn = 0.0;
        first_burn_us = None;
      }
    in
    Hashtbl.add t.slo_tbl id tr;
    t.slo_rev <- tr :: t.slo_rev;
    (* A trace breadcrumb so offline tools ([e2ebench slo]/[report])
       can recover each id's declared SLO from the file alone. *)
    Sim.Trace.event t.trace ~at ~id
      (Sim.Trace.Message
         { tag = "slo_declared"; detail = Printf.sprintf "%.17g" slo_us })
  end

let slo_feed tr ~at_us ~latency_us =
  Sim.Histo.add tr.histo latency_us;
  let n = tr.s_n in
  if n = Array.length tr.s_at then begin
    let cap = Stdlib.max 1024 (2 * n) in
    let at' = Array.make cap 0.0 in
    Array.blit tr.s_at 0 at' 0 n;
    tr.s_at <- at';
    let v' = Array.make (cap + 1) 0 in
    Array.blit tr.s_viol 0 v' 0 (n + 1);
    tr.s_viol <- v'
  end;
  tr.s_at.(n) <- at_us;
  tr.s_viol.(n + 1) <- tr.s_viol.(n) + (if latency_us > tr.slo_us then 1 else 0);
  tr.s_n <- n + 1

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

let slo_burn_over tr ~from_us ~upto_us =
  let i = first_after tr.s_at tr.s_n from_us in
  let j = first_after tr.s_at tr.s_n upto_us in
  if j <= i then 0.0
  else
    let viol = tr.s_viol.(j) - tr.s_viol.(i) in
    float_of_int viol /. float_of_int (j - i) /. slo_budget

let slo_tick t ~at =
  let at_us = Sim.Time.to_us at in
  List.iter
    (fun tr ->
      let burn = slo_burn_over tr ~from_us:(at_us -. t.burn_window_us) ~upto_us:at_us in
      tr.burn_rev <- (at_us, burn) :: tr.burn_rev;
      tr.final_burn <- burn;
      if burn > tr.max_burn then tr.max_burn <- burn;
      if burn > 1.0 && tr.first_burn_us = None then tr.first_burn_us <- Some at_us)
    t.slo_rev

let slo_report_of tr =
  let q p = Sim.Histo.quantile tr.histo p in
  let total = tr.s_n in
  let violations = tr.s_viol.(total) in
  {
    r_id = tr.slo_id;
    r_slo_us = tr.slo_us;
    r_total = total;
    r_violations = violations;
    r_attainment =
      (if total = 0 then 1.0
       else 1.0 -. (float_of_int violations /. float_of_int total));
    r_p50_us = q 50.0;
    r_p95_us = q 95.0;
    r_p99_us = q 99.0;
    r_max_burn = tr.max_burn;
    r_final_burn = tr.final_burn;
    r_first_burn_us = tr.first_burn_us;
    r_burn = List.rev tr.burn_rev;
  }

let slo_reports t = List.rev_map slo_report_of t.slo_rev

let note_request ?(id = "client") t ~at ~latency =
  let latency_us = Sim.Time.to_us latency in
  let n = t.n_reqs in
  if n = Array.length t.req_at then begin
    let cap = Stdlib.max 1024 (2 * n) in
    let at' = Array.make cap 0.0 in
    Array.blit t.req_at 0 at' 0 n;
    t.req_at <- at';
    let pf' = Array.make (cap + 1) 0.0 in
    Array.blit t.req_prefix 0 pf' 0 (n + 1);
    t.req_prefix <- pf'
  end;
  let at_us = Sim.Time.to_us at in
  t.req_at.(n) <- at_us;
  t.req_prefix.(n + 1) <- t.req_prefix.(n) +. latency_us;
  t.n_reqs <- n + 1;
  (match Hashtbl.find_opt t.slo_tbl id with
  | Some tr -> slo_feed tr ~at_us ~latency_us
  | None -> ());
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
  match Hashtbl.find_opt t.settle_tbl id with
  | Some tr -> tr
  | None ->
    let tr = { set_id = id; edges_rev = []; est_rev = []; mode_rev = [] } in
    Hashtbl.add t.settle_tbl id tr;
    t.settle_rev <- tr :: t.settle_rev;
    tr

let note_edge t ~id ~at =
  if t.settling_on then begin
    let tr = settle_tracker_of t id in
    tr.edges_rev <- Sim.Time.to_us at :: tr.edges_rev;
    (* Breadcrumb so offline tools can recompute settling from the
       trace file alone. *)
    Sim.Trace.event t.trace ~at ~id
      (Sim.Trace.Message { tag = "edge"; detail = Printf.sprintf "%.17g" (Sim.Time.to_us at) })
  end

let note_settle t ~id ~at ~est_us ~nagle_frac =
  if t.settling_on then begin
    let tr = settle_tracker_of t id in
    let at_us = Sim.Time.to_us at in
    (match est_us with
    | Some v when Float.is_finite v -> tr.est_rev <- (at_us, v) :: tr.est_rev
    | Some _ | None -> ());
    if Float.is_finite nagle_frac then
      tr.mode_rev <- (at_us, nagle_frac) :: tr.mode_rev
  end

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

let settle_report_of tr ~until_us =
  (* An edge at (or past) the end of the run opens a zero-length
     segment with nothing to judge — drop it. *)
  let edges =
    List.filter
      (fun e -> e < until_us)
      (List.sort_uniq compare (List.rev tr.edges_rev))
  in
  let ests = List.rev tr.est_rev in
  let modes = List.rev tr.mode_rev in
  let rec segments = function
    | [] -> []
    | edge :: rest ->
      let seg_end = match rest with e :: _ -> e | [] -> until_us in
      (edge, seg_end) :: segments rest
  in
  List.map
    (fun (edge, seg_end) ->
      let steady, settle =
        settle_of_series ests ~edge ~seg_end ~band:(fun steady ->
            Stdlib.max (settle_rel_tol *. Float.abs steady) settle_abs_floor_us)
      in
      let _, mode_settle =
        settle_of_series modes ~edge ~seg_end ~band:(fun _ -> mode_abs_tol)
      in
      {
        g_id = tr.set_id;
        g_edge_us = edge;
        g_end_us = seg_end;
        g_steady_us = steady;
        g_settle_us = settle;
        g_mode_settle_us = (if modes = [] then None else mode_settle);
        g_settled =
          settle <> None && (modes = [] || mode_settle <> None);
      })
    (segments edges)

let settle_reports t ~until_us =
  List.concat_map (fun tr -> settle_report_of tr ~until_us) (List.rev t.settle_rev)

let output ?(until_us = 0.0) t =
  let until_us =
    (* Default: judge settling up to the last observed sample/edge. *)
    if until_us > 0.0 then until_us
    else
      List.fold_left
        (fun acc tr ->
          let m = function [] -> acc | (at, _) :: _ -> Stdlib.max acc at in
          Stdlib.max (m tr.est_rev) (m tr.mode_rev))
        0.0 t.settle_rev
  in
  {
    records = Sim.Trace.records t.trace;
    dropped_records = Sim.Trace.dropped t.trace;
    samples = List.rev t.samples_rev;
    residual_pairs = E2e.Residual.pairs t.residual;
    residual = E2e.Residual.summary t.residual;
    audits = t.audits;
    slo = slo_reports t;
    settling = settle_reports t ~until_us;
  }
