(** Per-run observability: trace ring + metrics registry + estimator
    residuals, and the SLO fold over trace records.

    Created by {!Fleet.run} when [config.observe] is set.  Sockets get
    the trace attached, queue-depth gauges are registered for every
    connection, and a read-only sampling tick (running on the
    configured cadence) snapshots the registry and pairs peeked
    estimates with ground-truth latency.  Everything read at sampling
    time uses non-destructive accessors, so enabling observability
    cannot change simulation results. *)

type config = {
  trace_capacity : int;
      (** in-memory trace ring size; oldest records drop (unused with a
          sink) *)
  sample_interval : Sim.Time.span;  (** metrics sampling cadence *)
  trace_sink : (Sim.Trace.record -> unit) option;
      (** When set, trace records stream to this callback (e.g. a
          {!Sim.Trace.Binary} writer) as they are emitted instead of
          filling the ring, so the callback sees every record of a run
          of any length; [output.records] is then empty.  Single-run
          use only — do not share a sinked config across parallel sweep
          workers. *)
}

val default_config : config
(** 65536 records, 1 ms cadence, no sink. *)

type settle_report = {
  g_id : string;  (** the tracked id (typically ["tenant/client"]) *)
  g_edge_us : float;  (** the envelope edge / churn burst *)
  g_end_us : float;  (** segment end: the next edge, or end of run *)
  g_steady_us : float option;
      (** the segment's eventual steady estimate (tail median); [None]
          when the segment holds too few samples to judge *)
  g_settle_us : float option;
      (** time from the edge until the estimate is {e and stays} within
          the tolerance band (±25%, floored at ±60 µs) of the steady
          value; [None] when it never holds the band *)
  g_mode_settle_us : float option;
      (** ditto for the nagle-on mode fraction (band ±0.34); [None]
          with no mode series *)
  g_settled : bool;  (** both series settled within the segment *)
}
(** Re-convergence measurement for one edge-to-edge segment. *)

type output = {
  records : Sim.Trace.record list;  (** oldest first *)
  dropped_records : int;  (** overwritten by ring wraparound *)
  samples : Sim.Metrics.sample list;  (** oldest first *)
  residual_pairs : E2e.Residual.pair list;
  residual : E2e.Residual.summary option;
  audits : Sim.Audit.report list;
      (** Little's-law audit per queue over the measured window
          (registration order); empty until {!finalize_audit}. *)
  settling : settle_report list;
      (** per-id, per-edge re-convergence reports (edge order within
          declaration order) *)
}
(** Pure data: safe for structural equality and cross-domain moves. *)

type t

val create : config -> t
(** The trace starts enabled. *)

val trace : t -> Sim.Trace.t
val metrics : t -> Sim.Metrics.t
val interval : t -> Sim.Time.span

val audit : t -> Sim.Audit.t
(** The Little's-law audit registry; {!Fleet.run} attaches it to every
    socket's estimator and resets its window at warmup end. *)

val finalize_audit : t -> at:Sim.Time.t -> Sim.Audit.report list
(** Close the audit window at [at], store the per-queue reports so
    {!output} carries them, and return them. *)

val declare_slo : t -> at:Sim.Time.t -> id:string -> slo_us:float -> unit
(** Emit one [slo_declared] trace record carrying [id]'s SLO, so the
    SLO fold ({!slo_fold_record}) judges the completions logged under
    [id] ({!note_request}) against it.  Nothing is tracked in-run; each
    call writes one record, so declare an id once.
    @raise Invalid_argument for a non-positive or non-finite SLO. *)

val push : float array -> int -> float -> float array
(** [push a n x] stores [x] at [a.(n)], [a]'s first [n] slots in use,
    and returns [a], or a copy twice as large when [a] was full. *)

val first_after : float array -> int -> float -> int
(** [first_after a n bound] is the first index of the sorted prefix
    [a.(0..n-1)] whose value exceeds [bound] (binary search).  A window
    [(from, upto]] of completion times spans the indices
    [first_after a n from] to [first_after a n upto - 1]; the SLO burn
    rate and the residual's ground truth are both taken that way. *)

val note_request :
  ?id:string -> t -> at:Sim.Time.t -> latency:Sim.Time.span -> unit
(** Log one completed request (the residual ground-truth source) and
    emit a [Request_done] trace event under [id] (default ["client"]).
    Fleet runs pass tenant-tagged ids like ["bare/c0"] so reports can
    group request events by tenant. *)

val note_residual :
  t -> at:Sim.Time.t -> window_us:float -> est_us:float -> float option
(** Pair an estimate produced at [at] over [window_us] with the
    ground-truth latency over the same window.  Returns the truth used,
    or [None] (nothing recorded) when no request completed in the
    window. *)

val note_sample : t -> Sim.Metrics.sample -> unit

(** {1 Settling-time tracker}

    Measures how fast estimates and chosen modes re-converge after a
    load discontinuity: callers register the discontinuities
    ({!note_edge} — envelope edges, scripted churn epochs) and feed the
    per-tick estimate / mode-fraction series ({!note_settle}); the
    tracker computes, per edge-to-edge segment, the time until each
    series is back within a tolerance band of its eventual steady value
    (the segment's tail median).  All passive bookkeeping — tracking
    settling cannot perturb the run. *)

val note_edge : t -> id:string -> at:Sim.Time.t -> unit
(** Register a load discontinuity for [id] and emit an ["edge"]
    trace record so offline tools can recover it.  Edges may be
    registered ahead of their instant (the tracker sorts them). *)

val note_settle :
  t -> id:string -> at:Sim.Time.t -> est_us:float option -> nagle_frac:float -> unit
(** Feed one observability-tick sample for [id]: the aggregate latency
    estimate (skipped when [None]) and the fraction of the id's
    connections currently running Nagle-on ([nan] to skip). *)

val judge_settle :
  (float * float) list ->
  edge_us:float ->
  end_us:float ->
  kind:[ `Estimate | `Mode ] ->
  float option * float option
(** [(steady, settle_us)] for an arbitrary [(time µs, value)] series
    over one segment, under the tracker's own median filter and
    tolerance bands — the judgement both the in-run tracker and
    {!slo_settling} (settling from a trace's ["edge"] breadcrumbs and
    request-completion buckets) apply per segment.  Samples at
    [edge_us] and [end_us] themselves are excluded. *)

(** {1 SLO observatory}

    One fold over {!Sim.Trace.record}s, fed from a run's ring, its sink
    or a trace file alike: [slo_declared] declares an id and its SLO
    (the latest declaration wins), [Request_done] under a declared id
    feeds that id's {!Sim.Histo} and completion log, and ["edge"]
    records under a declared id are kept for offline settling.  Other
    records, and records under undeclared ids, are ignored.
    Completions are expected in time order per id, as every trace
    holds them. *)

val slo_budget : float
(** The error budget of a p99-judged SLO: 1% of completions may
    violate it.  A window's burn rate is its violating fraction over
    this budget. *)

val slo_burn_window_us : float
(** The burn-rate window: 10 ms. *)

type slo_report = {
  r_id : string;  (** the declared id (run, tenant or tenant per shard) *)
  r_slo_us : float;  (** declared SLO, judged at p99 *)
  r_total : int;
  r_violations : int;  (** completions above the SLO *)
  r_attainment : float;  (** 1 - violations/total (1.0 when empty) *)
  r_p50_us : float option;  (** histogram quantiles; [None] when no
                                request completed *)
  r_p95_us : float option;
  r_p99_us : float option;
  r_max_burn : float;  (** worst burn rate over all completions *)
  r_final_burn : float;  (** burn rate at the last completion *)
  r_first_burn_us : float option;
      (** first completion whose burn rate exceeded 1.0 (budget-eating) *)
}
(** Per-id SLO attainment.  Burn is evaluated at each completion [t]
    over the window [(t - 10 ms, t]]: the window's violating fraction
    over the 1% budget, so burn > 1 means the budget is being consumed
    faster than sustainable. *)

type slo_fold

val slo_fold : unit -> slo_fold
(** An empty fold. *)

val slo_fold_record : slo_fold -> Sim.Trace.record -> unit

val slo_reports : slo_fold -> slo_report list
(** One report per declared id, in declaration order, including ids
    with no completions ([r_total = 0]). *)

val slo_settling : slo_fold -> settle_report list
(** Offline settling: for each declared id with edges and completions,
    its completions as 1 ms-bucket mean latencies judged per
    edge-to-edge segment under {!judge_settle}'s [`Estimate] band; the
    last segment ends 1 µs past the last completion.  No mode series,
    so [g_mode_settle_us] is [None]. *)

val output : ?until_us:float -> t -> output
(** [until_us] closes the last settling segment (defaults to the last
    sample seen). *)
