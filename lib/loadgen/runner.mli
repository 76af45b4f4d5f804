(** One benchmark run: client + server + simulated stack at a fixed
    offered load and batching configuration.  It runs as a one-tenant
    {!Fleet} (the one run engine): this module translates its config
    and projects the fleet result.

    Reproduces the paper's methodology: a Lancet-style open-loop client
    drives a Redis-style server; measured latency comes from per-request
    timestamps at the client, while estimated latency comes from the
    §3.2 queue states exchanged through the stack.  Batching is either
    static (Nagle on / off — the two configurations of Figure 4) or
    dynamic (the ε-greedy toggler of §5 driven by the estimates).

    The batching types are re-exports of {!Control}'s — the controller
    itself lives there so {!Fleet} can attach one per scope unit.  The
    run's ids are the untagged ["c<i>"] / ["s<i>"] / ["client"]; its
    one control group (and decision ledger) is ["run"]. *)

type dynamic = Control.dynamic = {
  policy : E2e.Policy.t;
  epsilon : float;
  tick : Sim.Time.span;  (** decision/observation granularity *)
  ewma_alpha : float;
  min_observations : int;
  stale_after_rtts : float;
      (** k: shares older than k·srtt mark estimates stale (armed only
          under a fault plan) *)
  stale_floor : Sim.Time.span;
      (** lower bound on the staleness timeout, so low-rate runs with
          naturally sparse shares are not declared stale *)
  degrade : E2e.Degrade.config;  (** freeze/thaw hysteresis *)
  fallback : E2e.Toggler.mode;
      (** static mode pinned while estimates are stale *)
}

val default_dynamic : dynamic
(** SLO policy at 500 µs, ε = 0.05, 1 ms tick, EWMA α = 0.3; staleness
    at max(8 RTTs, 2 ms) with 2-tick freeze/thaw hysteresis, falling
    back to [Batch_off] (the TCP_NODELAY default dynamic runs start
    from). *)

type aimd_cfg = Control.aimd_cfg = {
  slo_us : float;
  aimd_tick : Sim.Time.span;
  min_limit : int;  (** bytes; the floor approximates TCP_NODELAY *)
  max_limit : int;  (** bytes; the MSS recovers full Nagle behaviour *)
  increase : int;
  decrease : float;
}

val default_aimd : aimd_cfg
(** SLO 500 µs, 1 ms tick, limit in 64–1448 B, +128 B / x0.5. *)

type batching = Control.batching =
  | Static_on
  | Static_off
  | Dynamic of dynamic
  | Aimd_limit of aimd_cfg
      (** §5 "Better Batching Heuristics": replace the binary toggle
          with an AIMD-adjusted minimum-transmit size. *)

type config = {
  seed : int;
  warmup : Sim.Time.span;
  duration : Sim.Time.span;  (** measured period, after warmup *)
  rate_rps : float;
  burst : int;  (** 1 = plain Poisson arrivals *)
  n_conns : int;  (** concurrent connections; estimates are aggregated
                      across them per §3.2 *)
  workload : Workload.t;
  trace : Trace.entry list option;
      (** replay this request schedule instead of sampling
          workload/arrival (keys must exist if they are GETs —
          see {!Workload.prepopulate}) *)
  batching : batching;
  unit_mode : E2e.Units.t;
  exchange : E2e.Exchange.policy;
  server : Kv.Server.config;
  client : Kv.Client.config;
  mss : int;
  rcv_buf : int;
  cork : bool;  (** enable auto-corking (ablation) *)
  tso : bool;  (** enable 64 KiB TCP segmentation offload (ablation) *)
  cc : bool;  (** enable Reno congestion control (needed under loss) *)
  loss_prob : float;  (** per-packet drop probability on both links *)
  fault : Fault.Plan.t option;
      (** deterministic fault-injection plan ([None], the default, adds
          no rng draws: plan-disabled runs are bit-identical to runs of
          the pre-fault codebase).  Arms per-link {!Fault.Injector}s,
          schedules the plan's bandwidth/delay steps, and enables the
          estimator staleness → toggler fallback machinery on dynamic
          runs. *)
  sack : bool;
      (** SACK scoreboard loss recovery on both endpoints (default
          [true]); [false] falls back to the historical go-back-N fast
          retransmit, the baseline for the BENCH_fault recovery
          comparison *)
  wscale : Tcp.Socket.wscale;
      (** window carriage, default [`Exact] (idealized full-width
          windows, bit-identical to the pre-wscale codebase) *)
  persist : bool;
      (** zero-window persist probing (default [true]); [false]
          reproduces the lost-window-update deadlock *)
  delack_timeout : Sim.Time.span;
  tx_cost : Sim.Time.span;  (** per-segment transmit IRQ cost, both hosts *)
  rx_seg_cost : Sim.Time.span;  (** per-wire-segment receive cost *)
  rx_batch_cost : Sim.Time.span;  (** per-GRO-delivery receive cost *)
  gro_enabled : bool;
  gro_flush_timeout : Sim.Time.span;
      (** NIC interrupt-coalescing window (rx-usecs) *)
  link : Tcp.Conn.link_params;
  observe : Observe.config option;
      (** attach the structured observability layer (trace + metrics +
          residuals); [None] (the default) costs nothing and produces
          bit-identical results to an observed run *)
}

val default_config : rate_rps:float -> batching:batching -> config
(** 100 ms warmup + 400 ms measured, paper SET-only workload, byte
    units, periodic 100 µs exchange, default server/client costs. *)

type estimate_sample = Control.estimate_sample = {
  at_us : float;
  latency_us : float option;
  throughput_rps : float;
  mode : E2e.Toggler.mode;
}

type result = {
  offered_rps : float;
  achieved_rps : float;
  completed : int;  (** completions inside the measured window *)
  issued : int;  (** lifetime requests issued, warmup included *)
  completed_total : int;  (** lifetime completions, warmup included *)
  outstanding_end : int;
      (** still in flight at run end; liveness closure is
          [issued = completed_total + outstanding_end] — anything else
          means a request was silently lost *)
  link_dropped : int;  (** packets dropped across all links *)
  shares_corrupted : int;  (** exchange options mangled by fault injection *)
  shares_rejected : int;
      (** shares refused by the estimators' plausibility clamps *)
  degrade_freezes : int option;  (** dynamic runs under a fault plan *)
  degrade_thaws : int option;
  degrade_frozen_end : bool option;
      (** still degraded when the run ended (estimator never
          recovered)? *)
  measured_mean_us : float;
  measured_p50_us : float;
  measured_p99_us : float;
  under_slo : float;  (** fraction of requests within 500 µs *)
  estimated_us : float option;
      (** stack estimate over the measured window (max of vantages) *)
  estimated_local_us : float option;
  estimated_remote_us : float option;
  hint_estimated_us : float option;  (** §3.3 hint-based estimate *)
  hint_server_estimated_us : float option;
      (** the server's view of the client's hint queue *)
  client_app_util : float;
  server_app_util : float;
  client_irq_util : float;
  server_irq_util : float;
  packets : int;
  packets_per_request : float;
  server_batch_mean : float;
  server_wakeups : int;
  nagle_toggles : int;
  final_mode : E2e.Toggler.mode option;  (** dynamic runs only *)
  final_batch_limit : int option;  (** AIMD runs only *)
  server_gro_merge : float;  (** wire segments per GRO delivery at the server *)
  client_srtt_us : float option;
      (** the client's smoothed RTT — the baseline signal §2 shows is
          insufficient for end-to-end latency *)
  client_p99_est_us : float option;
      (** online P² p99 estimate (worst across connections) — the tail
          building block for the paper's deferred future work *)
  samples : estimate_sample list;  (** tick-by-tick trace, oldest first *)
  observability : Observe.output option;
      (** present iff [config.observe] was set *)
}

val fleet_config : config -> Fleet.config
(** The one-tenant fleet a run is. *)

val of_fleet : config -> Fleet.result -> result
(** A run's result from its fleet's. *)

val run : config -> result
(** [of_fleet cfg (Fleet.run (fleet_config cfg))], after checking the
    connection count, rate and burst. *)

val slo_us : float
(** 500 µs, the paper's SLO. *)
