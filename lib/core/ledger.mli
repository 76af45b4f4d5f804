(** Decision ledger: explainable control.

    One ledger per control group (the fleet, a tenant, or a single
    connection) records every toggler/AIMD decision as a typed
    {!Sim.Trace.Decision_made} event — the per-arm estimates, the
    ε-draw branch, freeze state and staleness clock behind it — and,
    once the {e next} decision lands, closes the previous decision's
    tenure with a {!Sim.Trace.Decision_outcome} carrying the realized
    mean/p99 request latency over that tenure.  The final decision of
    a run stays open (no outcome event).

    The ledger only writes trace events; it never touches the
    simulation, so ledgered runs stay bit-identical to unledgered
    ones. *)

type t

val create : trace:Sim.Trace.t -> group:string -> t
(** Events are emitted into [trace] under id [group] (e.g. ["run"],
    ["bare"], ["bare/c0"]). *)

val group : t -> string

val completion : t -> latency:Sim.Time.span -> unit
(** Attribute one completed request to the open decision's tenure.
    Allocation-free when the trace is disabled or no decision is open
    (the enabled check precedes any conversion); enforced by
    [make alloc-gate]. *)

val decision :
  t ->
  at:Sim.Time.t ->
  ?on_us:float ->
  ?off_us:float ->
  mode:string ->
  action:string ->
  reason:string ->
  frozen:bool ->
  stale_us:float ->
  unit ->
  unit
(** Record one decision: emits the previous decision's
    [Decision_outcome] (if any) followed by this decision's
    [Decision_made], and starts a fresh tenure.  No-op while the trace
    is disabled.  See {!Sim.Trace.event} for field meanings. *)
