(** Per-connection end-to-end performance estimator.

    Owns the three local queue states of §3.2 (the network stack calls
    {!track_unacked} & co. on every queue change, as the prototype's
    kernel hooks do), ingests the peer's shared snapshots, and produces
    windowed latency/throughput estimates.

    Because both parties share all three queue states, either side can
    compute the end-to-end latency from {e both} vantage points;
    {!estimate} returns the maximum of the two (§3.2). *)

type t
(** Built at its full size: ingesting shares and tracking queues
    overwrite its counters in place, so it never grows with traffic. *)

val create : at:Sim.Time.t -> t

(** {1 Lifecycle}

    Estimators created with their run start [Warm]: the warmup-boundary
    [estimate] call already discards the ramp-up window.  A connection
    spawned {e mid-run} (fleet churn) has no such boundary — its first
    window spans TCP slow start with a handful of samples — so callers
    mark it [Cold_start].  While cold, {!peek_estimate} reports nothing
    and the first {!estimate} advances past the untrustworthy window
    (returning [None]) instead of publishing it; the estimator is
    [Warm] from then on.  Under [Per_tenant]/[Global] control scope the
    group's other estimators keep the aggregate alive meanwhile — the
    cold connection inherits the group prior instead of re-exploring. *)

type lifecycle = Cold_start | Warm

val set_cold_start : t -> unit
val lifecycle : t -> lifecycle
val is_cold : t -> bool

(** {1 Local queue instrumentation} *)

val track_unacked : t -> at:Sim.Time.t -> int -> unit
(** Items entered (positive) or left via acknowledgment (negative) the
    sent-unacknowledged queue. *)

val track_unread : t -> at:Sim.Time.t -> int -> unit
(** Items delivered to (positive) or read by the application from
    (negative) the receive queue. *)

val track_ackdelay : t -> at:Sim.Time.t -> int -> unit
(** Items received but not yet acknowledged to the peer. *)

val unacked_size : t -> int
val unread_size : t -> int
val ackdelay_size : t -> int

(** {1 Sharing} *)

val share : t -> at:Sim.Time.t -> hint:Hints.t option -> Exchange.wire
(** The three local queues' 3-tuples at [at], with [hint]'s share when
    given: what a segment carries.  Allocates the record and nothing
    else. *)

val local_snapshot : t -> at:Sim.Time.t -> Exchange.triple
(** {!share} without a hint, as a triple. *)

val verdict : t -> at:Sim.Time.t -> Exchange.wire -> string
(** The ingest rule: [""] when {!ingest_wire} at local time [at] would
    accept the share, else why it would not — a negative or non-finite
    counter (["range"]), a snapshot from the future (["future"]), or a
    counter running behind the last accepted share (["regress"]; times,
    totals and integrals are all monotone by construction). *)

val ingest_wire : t -> at:Sim.Time.t -> Exchange.wire -> unit
(** Record a share received from the peer at local time [at]; its hint,
    if any, is the socket's.  The remote measurement window runs from
    the share that was current at the last window advance (see
    {!estimate}) to the latest one, mirroring the local window.

    A share the {!verdict} refuses (corruption that survived decode,
    counters running backwards, future timestamps) is dropped without
    touching any window, counted in {!rejected_shares}, and traced as
    [Share_rejected] with the verdict as its reason.  Allocates nothing
    with tracing off.

    Before the first {!estimate} the baseline stays pinned to the
    first-ever share — intentional: [local_prev] likewise anchors at
    creation, so both windows span creation-to-first-estimate.  Sliding
    the baseline with every pre-estimate ingest would shrink the remote
    window to one share interval while the local window kept growing. *)

val ingest_remote : t -> at:Sim.Time.t -> Exchange.triple -> unit
(** {!ingest_wire} of the triple, which is first refused as ["skew"]
    when its three snapshot times disagree. *)

val rejected_shares : t -> int
(** Shares refused since creation. *)

(** {1 Staleness}

    Under adverse networks the peer's shares can stop arriving (loss
    bursts, blackouts); estimates computed from an old remote window
    silently decay.  With a staleness timeout configured, estimates are
    flagged [stale] once no share has been {e accepted} within the
    timeout — controllers should widen their confidence and fall back
    to a static policy ({!Degrade} supplies the hysteresis). *)

val set_staleness : t -> timeout:Sim.Time.span option -> unit
(** Configure (or clear, with [None] — the default) the staleness
    timeout.  Callers typically derive it from k·RTT, refreshed as the
    RTT estimate moves. *)

val staleness : t -> Sim.Time.span option

val is_stale : t -> at:Sim.Time.t -> bool
(** No accepted share within the timeout (anchored at creation until
    the first share)?  Always [false] with no timeout configured. *)

val last_share_at : t -> Sim.Time.t
(** Arrival time of the last accepted remote share; -1 before the
    first. *)

val remote_window : t -> (Exchange.triple * Exchange.triple) option
(** The remote window bounds, oldest first. *)

(** {1 Estimation} *)

type estimate = {
  latency_ns : float option;
      (** max of the two vantage points, per §3.2 *)
  latency_local_ns : float option;  (** as seen from this side *)
  latency_remote_ns : float option;  (** as seen from the peer *)
  throughput : float;
      (** departures/s from the local unacked queue — messages this
          side successfully pushed through in the window *)
  window : Sim.Time.span;  (** local window length *)
  stale : bool;
      (** no fresh remote share within the staleness timeout — treat
          the estimate as low-confidence (see {!set_staleness}) *)
}

val estimate : t -> at:Sim.Time.t -> estimate option
(** Estimate over the window since the previous [estimate] call (or
    creation).  The remote window is the span of shares ingested during
    the same period; the paper accepts the slight skew between the two
    ("Little's law estimates remain accurate regardless", §5).  Returns
    [None] when the local window is empty.  Advances both windows: the
    current local snapshot and the latest remote share become the new
    baselines. *)

val peek_estimate : t -> at:Sim.Time.t -> estimate option
(** Same computation without advancing the window.  Read-only: safe to
    call from observability sampling without perturbing the run. *)

val fold : t -> at:Sim.Time.t -> advance:bool -> Aggregate.acc -> bool
(** {!estimate} (with [advance]) or {!peek_estimate} (without), added
    into [acc] with {!Aggregate.add_last} instead of returned: the
    estimate is left in [acc]'s [last_*] fields and [true] returned, or
    [false] returned and [acc]'s sums left as they were where those
    return [None].  Allocates nothing unless tracing.  All three share
    one computation, and those two allocate only their result. *)

(** {1 Observability} *)

val set_trace : t -> Sim.Trace.t -> id:string -> unit
(** Emit [Share_ingested] on {!ingest_wire} (timestamped with the
    peer's snapshot time) and [Estimate_computed] on every successful
    {!estimate} into [trace], labelled [id]. *)

val set_audit : t -> Sim.Audit.t -> prefix:string -> unit
(** Mirror every {!track_unacked}/{!track_unread}/{!track_ackdelay}
    delta into Little's-law audit queues named [prefix ^ ".unacked"],
    [".unread"], [".ackdelay"].  Pure bookkeeping: auditing a run
    cannot change its results. *)
