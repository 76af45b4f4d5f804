(** Batching control groups.

    One control group drives the batching decision for a set of
    connections: the two static modes are a socket flag, while
    [Dynamic] (the §5 ε-greedy toggler) and [Aimd_limit] (§5's
    better-heuristics variant) schedule a per-group decision tick that
    reads the group's client-side estimators, scores the active arm and
    switches every socket of the group together.

    {!Fleet.run} attaches one per scope unit — fleet, tenant, or single
    connection — each with an independently split rng, so a
    per-connection group can settle on Nagle-on while its neighbour
    settles on Nagle-off; a single run ({!Runner.run}) has one group
    spanning the run. *)

type dynamic = {
  policy : E2e.Policy.t;
  epsilon : float;
  tick : Sim.Time.span;  (** decision/observation granularity *)
  ewma_alpha : float;
  min_observations : int;
  stale_after_rtts : float;
      (** k: shares older than k·srtt mark estimates stale (armed only
          when [fault_armed]) *)
  stale_floor : Sim.Time.span;
  degrade : E2e.Degrade.config;  (** freeze/thaw hysteresis *)
  fallback : E2e.Toggler.mode;  (** static mode pinned while stale *)
}

val default_dynamic : dynamic
(** SLO policy at 500 µs, ε = 0.05, 1 ms tick, EWMA α = 0.3; staleness
    at max(8 RTTs, 2 ms) with 2-tick freeze/thaw hysteresis, falling
    back to [Batch_off]. *)

type aimd_cfg = {
  slo_us : float;
  aimd_tick : Sim.Time.span;
  min_limit : int;  (** bytes; the floor approximates TCP_NODELAY *)
  max_limit : int;  (** bytes; the MSS recovers full Nagle behaviour *)
  increase : int;
  decrease : float;
}

val default_aimd : aimd_cfg
(** SLO 500 µs, 1 ms tick, limit in 64–1448 B, +128 B / x0.5. *)

type batching = Static_on | Static_off | Dynamic of dynamic | Aimd_limit of aimd_cfg

val initial_nagle : batching -> bool
(** The socket's Nagle flag at connection setup for this mode. *)

type estimate_sample = {
  at_us : float;
  latency_us : float option;
  throughput_rps : float;
  mode : E2e.Toggler.mode;
}

val estimate_socks :
  advance:bool ->
  ((Tcp.Socket.t -> unit) -> unit) ->
  at:Sim.Time.t ->
  E2e.Aggregate.acc ->
  unit
(** Reset [acc] and fold into it the estimates of the client-side
    estimators of the sockets the iterator visits, in that order
    (§3.2).  [advance] closes each estimation window instead of
    peeking. *)

type t

val attach :
  ?ledger:E2e.Ledger.t ->
  engine:Sim.Engine.t ->
  until:Sim.Time.t ->
  rng:Sim.Rng.t ->
  fault_armed:bool ->
  batching:batching ->
  members:((Tcp.Socket.t -> Tcp.Socket.t -> unit) -> unit) ->
  unit ->
  t
(** Create the group and (for [Dynamic]/[Aimd_limit]) schedule its
    decision tick until [until].  [members f] calls [f client server]
    for each connection of the group, in order: the client sockets
    supply the estimates, and mode switches apply to every client and
    then every server.  A static group never calls [members] and keeps
    no member list.  [rng] feeds the ε-greedy exploration draws only —
    static and AIMD groups never consume it.  [fault_armed] arms the
    staleness → degrade → fallback machinery (dynamic groups only).
    With [ledger] set, every toggler/AIMD decision is recorded as a
    [Decision_made] trace event (per-arm estimates, ε-branch, freeze
    state, staleness clock); the caller feeds request completions to
    {!E2e.Ledger.completion} so tenures close with realized
    [Decision_outcome]s.  Ledgering only writes trace events — it
    never perturbs the run. *)

val adopt :
  ?inherit_mode:bool -> t -> client_sock:Tcp.Socket.t -> server_sock:Tcp.Socket.t -> unit
(** Join a connection spawned mid-run (fleet churn) to a live group.
    The pair becomes visible to the next decision tick, and — with
    [inherit_mode] (the default) — the group's {e current} mode
    (toggler arm, AIMD limit, or static flag) is applied to both
    sockets immediately: the cold-start inheritance path for
    [Global]/[Per_tenant] scope.  [~inherit_mode:false] joins the
    membership only (the chaos ablation), leaving the sockets on their
    setup-time flags until the next group-wide switch. *)

val abandon : t -> client_sock:Tcp.Socket.t -> server_sock:Tcp.Socket.t -> unit
(** Remove a departing connection (compared physically) so the decision
    tick stops reading its estimator while it drains and closes. *)

val samples : t -> estimate_sample list
(** Tick-by-tick estimate log, oldest first (dynamic groups; empty
    otherwise). *)

val final_mode : t -> E2e.Toggler.mode option

val toggler : t -> E2e.Toggler.t option
(** The group's ε-greedy toggler (dynamic groups only) — exposed so a
    per-conn group spawned by churn can seed its arms from a sibling
    via {!E2e.Toggler.seed_arm}. *)

val current_nagle : t -> bool
(** The Nagle flag the group would apply to a joining socket now. *)

val final_batch_limit : t -> int option
val degrade_freezes : t -> int option
val degrade_thaws : t -> int option
val degrade_frozen_end : t -> bool option

val sample_summary :
  t -> warmup_until:Sim.Time.t -> float option * float
(** Mean estimated latency (µs) and mean estimated throughput over the
    group's post-warmup samples; [(None, 0.)] when there are none. *)
