(** The run engine: a heterogeneous multi-tenant fleet against one
    server tier.  A single run is a one-tenant fleet ({!Runner} only
    translates its config and projects the result).

    Each tenant models one client deployment — its own host (app core +
    IRQ core), connection count, arrival process, workload, CPU price
    ([cpu_multiplier] > 1 is the paper's Figure-2 VM client), link
    delay and SLO — and every tenant's connections terminate at the
    same server tier (by default one single-threaded core).  The shared
    server couples the tenants: batching decisions made for one change
    the CPU headroom left for the others.

    The [scope] knob sets the granularity of batching control: one
    {!Control} group spanning the fleet, one per tenant, or one per
    connection.  Per-connection dynamic groups each own their toggler,
    estimator windows and exploration rng, so a bare-metal tenant's
    connections can settle on Nagle-on while a VM tenant's settle on
    Nagle-off — the headline heterogeneous-fleet experiment where no
    global static choice serves both.

    Time-varying load: a tenant's arrival process can be wrapped in an
    {!Arrival.envelope} (flash-crowd square waves, diurnal ramps,
    stepped schedules) or replaced outright by a recorded gap trace
    ([replay_gaps]) or command schedule ([trace]), and tenants may
    declare connection [churn].  Connections spawned mid-run enter TCP
    slow-start and the estimator cold-start path — with
    [cold_start_inherit] they adopt the live group mode
    (Global/Per_tenant) or seed a fresh per-connection toggler from a
    sibling's learned arms (Per_conn) instead of re-exploring.
    Departing connections stop accepting requests, drain what is
    outstanding, and FIN cleanly.  {!Observe}'s settling tracker
    measures re-convergence after every envelope edge and scripted
    churn epoch.

    Determinism: identical configs produce identical results across
    repeats and across worker-domain counts; rng streams are split in a
    fixed, documented order (two per tenant, one per control group, one
    for loss and one for faults when armed, then one per {e churning}
    tenant).  Configs without loss, faults, envelopes or churn split
    exactly the fixed-population streams, and a one-tenant fleet splits
    exactly the historical single-run streams. *)

type scope =
  | Global  (** one control group spans every connection of the fleet *)
  | Per_tenant  (** one group per tenant *)
  | Per_conn  (** one group — toggler, estimators, rng — per connection *)

val scope_label : scope -> string

type churn = {
  arrive_rps : float;
      (** Poisson connection-arrival rate (connections/s); 0 disables *)
  depart_rps : float;  (** Poisson departure rate; 0 disables *)
  min_conns : int;  (** departures below this floor are refused (>= 1) *)
  max_conns : int;  (** arrivals above this cap are dropped *)
  script : (Sim.Time.t * int) list;
      (** scripted epochs: at each absolute instant, [+n] spawns /
          [-n] retires that many connections (clamped to the
          min/max band); each epoch is also a settling-tracker edge *)
}

val no_churn : churn
(** No rates, no script, population band [1, 64] — a base to [with]. *)

type tenant = {
  name : string;
      (** unique, no '/' or whitespace; trace/span ids are tagged
          ["<name>/c<i>"] / ["<name>/s<i>"].  Only a sole tenant may
          have an empty name; it gets the untagged single-run ids
          ["c<i>"] / ["s<i>"] and request id ["client"]. *)
  n_conns : int;
  rate_rps : float;
  burst : int;  (** 1 = plain Poisson arrivals *)
  workload : Workload.t;
  cpu_multiplier : float;
      (** scales the client's per-request CPU costs; 1.0 bare metal,
          4.0 the paper's VM client *)
  link : Tcp.Conn.link_params;
  slo_us : float;  (** per-tenant SLO used for [t_under_slo] *)
  batching : Control.batching;
      (** this tenant's mode under [Per_tenant]/[Per_conn] scopes;
          ignored under [Global] *)
  envelope : Arrival.envelope;
      (** rate modulation over the base arrival process ([Flat] = the
          historical fixed-rate behaviour) *)
  replay_gaps : int array option;
      (** when set, replaces the Poisson/bursty base process with a
          verbatim replay of these inter-arrival gaps (ns), cycling —
          see {!Trace.load_gaps}; [rate_rps]/[burst] are then ignored
          and the offered rate reported is the trace's long-run mean *)
  trace : Trace.entry list option;
      (** when set, issue exactly this command schedule (clipped to the
          run) instead of sampling workload/arrival; GET keys must exist
          — see {!Workload.prepopulate} *)
  churn : churn option;  (** connection lifecycle; [None] = fixed population *)
}

val default_tenant : name:string -> rate_rps:float -> tenant
(** 1 connection, Poisson, paper SET-only workload, bare-metal CPU,
    default link, 500 µs SLO, [Static_off], flat envelope, no replay,
    no churn. *)

type config = {
  seed : int;
  warmup : Sim.Time.span;
  duration : Sim.Time.span;  (** measured period, after warmup *)
  scope : scope;
  batching : Control.batching;
      (** the fleet-wide group's mode under [Global]; ignored otherwise *)
  server : Kv.Server.config;
  client : Kv.Client.config;
      (** base costs; each tenant's [cpu_multiplier] stacks on top *)
  host : Tcp.Conn.host_params;
      (** both ends of every connection; the socket's [nagle] is set
          from the group's batching mode, and churn arrivals force
          [cc_enabled] (slow start) *)
  loss_prob : float;  (** per-packet drop probability on every link *)
  fault : Fault.Plan.t option;
      (** deterministic fault-injection plan ([None], the default, adds
          no rng draws).  Arms per-link {!Fault.Injector}s, schedules the
          plan's bandwidth/delay steps on every link, and enables the
          estimator staleness → toggler fallback machinery of dynamic
          groups. *)
  observe : Observe.config option;
  cold_start_inherit : bool;
      (** churn arrivals inherit the group prior (live mode / seeded
          arms) and discard their slow-start estimation window; [false]
          is the ablation that makes them re-explore from scratch —
          the chaos churn cells assert it breaks re-convergence
          bounds.  Default [true]. *)
  cores : int;
      (** server shards (simulated cores), each with a private run
          queue, app CPU and irq CPU.  [cores = 1] is the unsharded
          tier and runs bit-identical to the pre-sharding code.
          Default 1. *)
  lb : Shard.Lb.policy;
      (** front load-balancer policy steering new connections onto
          shards.  Ignored when [cores = 1].  Default
          [Consistent_hash]. *)
  tenants : tenant list;
}

val default_config : tenants:tenant list -> config
(** Seed 42, 100 ms warmup + 400 ms measured, [Global] scope with
    [Static_off], default server/client costs, {!Tcp.Conn.default_host}
    with a 1 MiB receive buffer, no loss or faults, no observability,
    cold-start inheritance on. *)

type tenant_result = {
  t_name : string;
  t_offered_rps : float;
      (** base arrival rate (the trace's long-run mean under replay) *)
  t_achieved_rps : float;
  t_completed : int;  (** completions inside the measured window *)
  t_issued : int;  (** lifetime, warmup included *)
  t_completed_total : int;  (** lifetime completions, warmup included *)
  t_outstanding_end : int;
      (** liveness closure over every connection the tenant ever had,
          departed ones included:
          [t_issued = t_completed_total + t_outstanding_end] *)
  t_mean_us : float;
  t_p50_us : float;
  t_p99_us : float;
  t_under_slo : float;  (** fraction within this tenant's [slo_us] *)
  t_estimated_us : float option;
      (** §3.2 stack estimate aggregated over the tenant's live
          connections (max of vantages) *)
  t_estimated_local_us : float option;
  t_estimated_remote_us : float option;
      (** per-vantage detail; single-connection static/AIMD tenants only *)
  t_client_app_util : float;
  t_client_irq_util : float;
  t_nagle_toggles : int;  (** summed over the tenant's client sockets *)
  t_conns_opened : int;  (** connections spawned mid-run by churn *)
  t_conns_closed : int;  (** connections drained, FINed and closed *)
}

(** The counters a single run ({!Runner.result}) reports beyond its
    tenant row, over the sole tenant's connections.  Only a one-tenant
    fleet gathers them: each costs a pass over every connection at
    warmup and at run end. *)
type run_detail = {
  d_hint_estimated_us : float option;  (** §3.3 hint-based estimate *)
  d_hint_server_estimated_us : float option;
      (** the servers' view of the clients' hint queues *)
  d_packets : int;  (** packets on the tenant's links in the measured window *)
  d_link_dropped : int;  (** lifetime packets dropped on the tenant's links *)
  d_shares_corrupted : int;  (** exchange options mangled by fault injection *)
  d_shares_rejected : int;
      (** shares refused by the estimators' plausibility clamps *)
  d_server_batch_mean : float;
  d_server_wakeups : int;
  d_server_gro_merge : float;  (** wire segments per GRO delivery at the server *)
  d_srtt_us : float option;
      (** the first connection's smoothed RTT — the baseline signal §2
          shows is insufficient for end-to-end latency *)
  d_p99_est_us : float option;
      (** online P² p99 estimate, worst across connections *)
}

type shard_result = {
  sh_index : int;
  sh_conns : int;  (** connections ever steered here, departed included *)
  sh_issued : int;  (** lifetime, warmup included *)
  sh_completed_total : int;  (** lifetime completions, warmup included *)
  sh_outstanding_end : int;
      (** per-shard liveness closure:
          [sh_issued = sh_completed_total + sh_outstanding_end] *)
  sh_completed : int;  (** completions inside the measured window *)
  sh_achieved_rps : float;
  sh_mean_us : float;
  sh_p99_us : float;
  sh_app_util : float;
  sh_irq_util : float;
}

type group_result = {
  g_id : string;
      (** ["run"] under [Global], the tenant name under [Per_tenant],
          the client connection label under [Per_conn] *)
  g_final_mode : E2e.Toggler.mode option;  (** dynamic groups only *)
  g_final_batch_limit : int option;  (** AIMD groups only *)
  g_degrade_freezes : int option;  (** dynamic groups under a fault plan *)
  g_degrade_thaws : int option;
  g_degrade_frozen_end : bool option;
      (** still degraded when the run ended (estimator never
          recovered)? *)
  g_samples : Control.estimate_sample list;  (** tick-by-tick, oldest first *)
}

type result = {
  tenants : tenant_result list;  (** in [config.tenants] order *)
  shards : shard_result list;
      (** one per shard in index order; a single element when
          [cores = 1] *)
  groups : group_result list;
      (** one per control group in group order, churn-spawned groups
          last *)
  fleet_achieved_rps : float;
  fleet_mean_us : float;
  fleet_p99_us : float;
  goodput_max_min_ratio : float option;
      (** max/min of per-tenant achieved/offered; 1.0 is perfectly fair *)
  goodput_jain : float option;  (** Jain's index over the same fractions *)
  server_app_util : float;  (** summed across shards *)
  server_irq_util : float;  (** summed across shards *)
  detail : run_detail option;  (** [Some] exactly for a one-tenant fleet *)
  observability : Observe.output option;
      (** includes the per-tenant settling reports when envelopes or
          scripted churn declared edges *)
}

val final_modes : result -> (string * E2e.Toggler.mode) list
(** Final mode per dynamic control group, keyed by group id. *)

val run : config -> result
(** Raises [Invalid_argument] on an empty tenant list, duplicate or
    malformed tenant names (an empty name beside other tenants
    included), non-positive per-tenant rates, bursts,
    connection counts, CPU multipliers or SLOs, malformed envelopes or
    replay traces, or churn declarations whose rates are negative,
    whose population band is empty, or whose scripts hold zero deltas
    or negative times. *)
