(* A single run is a one-tenant fleet: this module owns the single-run
   types and defaults, translates its config into a {!Fleet.config}
   and projects the {!Fleet.result} back.  The batching types are
   {!Control}'s, re-exported verbatim. *)

type dynamic = Control.dynamic = {
  policy : E2e.Policy.t;
  epsilon : float;
  tick : Sim.Time.span;
  ewma_alpha : float;
  min_observations : int;
  stale_after_rtts : float;
  stale_floor : Sim.Time.span;
  degrade : E2e.Degrade.config;
  fallback : E2e.Toggler.mode;
}

let default_dynamic = Control.default_dynamic

type aimd_cfg = Control.aimd_cfg = {
  slo_us : float;
  aimd_tick : Sim.Time.span;
  min_limit : int;
  max_limit : int;
  increase : int;
  decrease : float;
}

let default_aimd = Control.default_aimd

type batching = Control.batching =
  | Static_on
  | Static_off
  | Dynamic of dynamic
  | Aimd_limit of aimd_cfg

type config = {
  seed : int;
  warmup : Sim.Time.span;
  duration : Sim.Time.span;
  rate_rps : float;
  burst : int;
  n_conns : int;
  workload : Workload.t;
  trace : Trace.entry list option;
      (* replay this schedule instead of drawing from workload/arrival *)
  batching : batching;
  unit_mode : E2e.Units.t;
  exchange : E2e.Exchange.policy;
  server : Kv.Server.config;
  client : Kv.Client.config;
  mss : int;
  rcv_buf : int;
  cork : bool;
  tso : bool;
  cc : bool;
  loss_prob : float;  (* per-packet drop probability, both directions *)
  fault : Fault.Plan.t option;  (* deterministic fault-injection plan *)
  sack : bool;  (* SACK scoreboard loss recovery (go-back-N when off) *)
  wscale : Tcp.Socket.wscale;  (* window carriage: exact or RFC 7323 *)
  persist : bool;  (* zero-window persist probing *)
  delack_timeout : Sim.Time.span;
  tx_cost : Sim.Time.span;
  rx_seg_cost : Sim.Time.span;
  rx_batch_cost : Sim.Time.span;
  gro_enabled : bool;
  gro_flush_timeout : Sim.Time.span;
  link : Tcp.Conn.link_params;
  observe : Observe.config option;
}

let default_config ~rate_rps ~batching =
  {
    seed = 42;
    warmup = Sim.Time.ms 100;
    duration = Sim.Time.ms 400;
    rate_rps;
    burst = 1;
    n_conns = 1;
    workload = Workload.paper_set_only;
    trace = None;
    batching;
    unit_mode = E2e.Units.Bytes;
    exchange = E2e.Exchange.Periodic (Sim.Time.us 100);
    server = Kv.Server.default_config;
    client = Kv.Client.default_config;
    mss = 1448;
    rcv_buf = 1024 * 1024;
    cork = false;
    tso = false;
    cc = false;
    loss_prob = 0.0;
    fault = None;
    sack = true;
    wscale = `Exact;
    persist = true;
    delack_timeout = Sim.Time.ms 40;
    tx_cost = Sim.Time.ns 300;
    rx_seg_cost = Sim.Time.ns 150;
    rx_batch_cost = Sim.Time.us 8;
    gro_enabled = true;
    gro_flush_timeout = Sim.Time.us 12;
    link = Tcp.Conn.default_link;
    observe = None;
  }

type estimate_sample = Control.estimate_sample = {
  at_us : float;
  latency_us : float option;
  throughput_rps : float;
  mode : E2e.Toggler.mode;
}

type result = {
  offered_rps : float;
  achieved_rps : float;
  completed : int;
  issued : int;
  completed_total : int;
  outstanding_end : int;
  link_dropped : int;
  shares_corrupted : int;
  shares_rejected : int;
  degrade_freezes : int option;
  degrade_thaws : int option;
  degrade_frozen_end : bool option;
  measured_mean_us : float;
  measured_p50_us : float;
  measured_p99_us : float;
  under_slo : float;
  estimated_us : float option;
  estimated_local_us : float option;
  estimated_remote_us : float option;
  hint_estimated_us : float option;
  hint_server_estimated_us : float option;
  client_app_util : float;
  server_app_util : float;
  client_irq_util : float;
  server_irq_util : float;
  packets : int;
  packets_per_request : float;
  server_batch_mean : float;
  server_wakeups : int;
  nagle_toggles : int;
  final_mode : E2e.Toggler.mode option;
  final_batch_limit : int option;
  server_gro_merge : float;
  client_srtt_us : float option;
      (* the RTT baseline the paper rules out, for comparison *)
  client_p99_est_us : float option;  (* online P2 tail estimate *)
  samples : estimate_sample list;
  observability : Observe.output option;
}

let slo_us = 500.0

(* The sole tenant has an empty name, so every id is the untagged
   single-run one ("c0", "s0", "client"). *)
let fleet_config cfg : Fleet.config =
  let socket =
    {
      Tcp.Socket.mss = cfg.mss;
      nagle = Control.initial_nagle cfg.batching;
      cork = cfg.cork;
      tso_max = (if cfg.tso then Some (64 * 1024) else None);
      cc_enabled = cfg.cc;
      delack_timeout = cfg.delack_timeout;
      delack_max_pending = 2;
      rcv_buf = cfg.rcv_buf;
      unit_mode = cfg.unit_mode;
      exchange = cfg.exchange;
      sack = cfg.sack;
      wscale = cfg.wscale;
      persist = cfg.persist;
    }
  in
  let host =
    {
      Tcp.Conn.socket;
      tx_cost = cfg.tx_cost;
      rx_seg_cost = cfg.rx_seg_cost;
      rx_batch_cost = cfg.rx_batch_cost;
      gro =
        {
          (Tcp.Gro.default_config ~mss:cfg.mss) with
          enabled = cfg.gro_enabled;
          flush_timeout = cfg.gro_flush_timeout;
        };
    }
  in
  let tenant =
    {
      (Fleet.default_tenant ~name:"" ~rate_rps:cfg.rate_rps) with
      n_conns = cfg.n_conns;
      burst = cfg.burst;
      workload = cfg.workload;
      link = cfg.link;
      slo_us;
      batching = cfg.batching;
      trace = cfg.trace;
    }
  in
  {
    (Fleet.default_config ~tenants:[ tenant ]) with
    seed = cfg.seed;
    warmup = cfg.warmup;
    duration = cfg.duration;
    batching = cfg.batching;
    server = cfg.server;
    client = cfg.client;
    host;
    loss_prob = cfg.loss_prob;
    fault = cfg.fault;
    observe = cfg.observe;
  }

let of_fleet cfg (r : Fleet.result) =
  match (r.tenants, r.groups, r.detail) with
  | [ t ], [ g ], Some d ->
    {
      offered_rps = cfg.rate_rps;
      achieved_rps = t.t_achieved_rps;
      completed = t.t_completed;
      issued = t.t_issued;
      completed_total = t.t_completed_total;
      outstanding_end = t.t_outstanding_end;
      link_dropped = d.d_link_dropped;
      shares_corrupted = d.d_shares_corrupted;
      shares_rejected = d.d_shares_rejected;
      degrade_freezes = g.g_degrade_freezes;
      degrade_thaws = g.g_degrade_thaws;
      degrade_frozen_end = g.g_degrade_frozen_end;
      measured_mean_us = t.t_mean_us;
      measured_p50_us = t.t_p50_us;
      measured_p99_us = t.t_p99_us;
      under_slo = t.t_under_slo;
      estimated_us = t.t_estimated_us;
      estimated_local_us = t.t_estimated_local_us;
      estimated_remote_us = t.t_estimated_remote_us;
      hint_estimated_us = d.d_hint_estimated_us;
      hint_server_estimated_us = d.d_hint_server_estimated_us;
      client_app_util = t.t_client_app_util;
      server_app_util = r.server_app_util;
      client_irq_util = t.t_client_irq_util;
      server_irq_util = r.server_irq_util;
      packets = d.d_packets;
      packets_per_request =
        (if t.t_completed = 0 then 0.0
         else float_of_int d.d_packets /. float_of_int t.t_completed);
      server_batch_mean = d.d_server_batch_mean;
      server_wakeups = d.d_server_wakeups;
      (* The run's one control group switches every connection in
         lockstep, so each connection's count is the tenant sum over
         [n_conns]. *)
      nagle_toggles = t.t_nagle_toggles / cfg.n_conns;
      final_mode = g.g_final_mode;
      final_batch_limit = g.g_final_batch_limit;
      server_gro_merge = d.d_server_gro_merge;
      client_srtt_us = d.d_srtt_us;
      client_p99_est_us = d.d_p99_est_us;
      samples = g.g_samples;
      observability = r.observability;
    }
  | _ -> invalid_arg "Runner.of_fleet: expected one tenant and one control group"

let run cfg =
  if cfg.n_conns < 1 then invalid_arg "Runner.run: n_conns must be at least 1";
  if (not (Float.is_finite cfg.rate_rps)) || cfg.rate_rps <= 0.0 then
    invalid_arg "Runner.run: rate_rps must be positive and finite";
  if cfg.burst < 1 then invalid_arg "Runner.run: burst must be at least 1";
  of_fleet cfg (Fleet.run (fleet_config cfg))
