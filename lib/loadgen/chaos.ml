type cell = { label : string; config : Fleet.config; owed : Invariants.owed }

(* Bursty loss calibrated so the long-run loss rate matches [loss] but
   drops cluster in bursts of ~4 packets (mean Bad-state dwell 1/p_bg
   with everything dropped while Bad): the regime where loss actually
   stresses estimators, per the TCP-variants analysis.  The stationary
   Bad probability p_gb/(p_gb + p_bg) is set to [loss]. *)
let gilbert_of_loss loss =
  if loss <= 0.0 then None
  else
    let p_bg = 0.25 in
    Some
      {
        Fault.Plan.p_gb = p_bg *. loss /. Stdlib.max 1e-6 (1.0 -. loss);
        p_bg;
        loss_good = 0.0;
        loss_bad = 1.0;
      }

let plan ~(base : Runner.config) ~loss ~reorder ~blackout_ms ~zero_window =
  let side =
    {
      Fault.Plan.empty_side with
      loss = gilbert_of_loss loss;
      reorder =
        (if reorder > 0.0 then
           Some { Fault.Plan.reorder_prob = reorder; max_displacement = 3; quantum_us = 20.0 }
         else None);
    }
  in
  (* The blackout starts a quarter into the measured window, so the
     estimator has settled before the lights go out and has most of the
     window to recover afterwards.  Zero-window cells place it earlier
     (an eighth in): recovery from a deadlocked zero-window stall is
     paced by the persist timer's RTO floor (>= 200 ms to the first
     probe), and the slow-consumer pipeline then needs the rest of the
     run to drain the stranded backlog — a quarter-way blackout leaves
     too little room to tell recovery from deadlock. *)
  let side =
    if blackout_ms <= 0.0 then side
    else begin
      let from_us =
        Sim.Time.to_us base.warmup
        +. (Sim.Time.to_us base.duration /. if zero_window then 8.0 else 4.0)
      in
      {
        side with
        Fault.Plan.blackouts =
          [ { Fault.Plan.from_us; until_us = from_us +. (blackout_ms *. 1e3) } ];
      }
    end
  in
  { Fault.Plan.c2s = side; s2c = side; steps = [] }

let wire_cell ~(base : Runner.config) ~loss ~reorder ~blackout_ms ~zero_window =
  let cfg =
    {
      base with
      fault = Some (plan ~base ~loss ~reorder ~blackout_ms ~zero_window);
      (* Retransmission needs congestion control under real loss. *)
      cc = base.cc || loss > 0.0 || blackout_ms > 0.0;
    }
  in
  let cfg =
    if not zero_window then cfg
    else
      {
        cfg with
        (* A few-MSS receive buffer plus a slow consumer (the server
           takes 1 ms to get around to reading) makes the advertised
           window genuinely close and *stay* closed most of the time:
           the connection spends ~85% of each window-fill cycle in the
           critical state where all sent data is acked, the window is
           zero, and liveness hangs on one window-update ack.  A
           blackout starting inside such a closure eats that update,
           and with nothing in flight the RTO backstop never arms: only
           the persist timer can revive the connection.  The reduced
           rate keeps the offered load under the slow consumer's
           capacity, so the stall invariant discriminates deadlock from
           saturation and a revived run can actually drain its
           backlog. *)
        rcv_buf = 4 * cfg.mss;
        rate_rps = cfg.rate_rps /. 40.0;
        server = { cfg.server with Kv.Server.wake_delay = Sim.Time.ms 1 };
      }
  in
  (* A blackout clears, so shares must flow again by run end; ongoing
     random loss does not, and bursts can wipe the whole in-flight
     window arbitrarily close to run end (each wipe a >= 200 ms RTO
     stall), so a toggler still frozen then is the fallback working as
     designed.  The same physics exempts lossy zero-window cells from
     the stall bound: under Gilbert bursts a Bad dwell can eat several
     RTO-spaced persist probes back to back, which is slow recovery,
     not a deadlock.  Without random loss the one dropped window
     update is repaired by the first probe, deterministically. *)
  let transient = loss = 0.0 in
  {
    label =
      Printf.sprintf "loss=%g reorder=%g blackout=%gms%s" loss reorder blackout_ms
        (if zero_window then " zw" else "");
    config = Runner.fleet_config cfg;
    owed =
      {
        Invariants.base with
        stall_free = zero_window && transient;
        froze = blackout_ms > 0.0;
        thawed = blackout_ms > 0.0 && transient;
      };
  }

let grid ?(zero_windows = [ false ]) ~base ~losses ~reorders ~blackouts_ms () =
  List.concat_map
    (fun loss ->
      List.concat_map
        (fun reorder ->
          List.concat_map
            (fun blackout_ms ->
              List.map
                (fun zero_window -> wire_cell ~base ~loss ~reorder ~blackout_ms ~zero_window)
                zero_windows)
            blackouts_ms)
        reorders)
    losses

type load = Flash_crowd | Churn_storm

(* Storm disturbances are population changes against a constant rate:
   the estimate moves a little and the seeded modes not at all, so
   25 ms is generous.  Flash peaks deliberately melt the server for
   20 ms at a time; the recovery being bounded is the whole point, and
   the bound budgets for the backlog drain after each burst. *)
let churn_settle_bound_us = 25_000.0
let flash_settle_bound_us = 60_000.0

let churn_config ~inherit_prior load =
  let storm = load = Churn_storm in
  (* The 150 µs policy SLO makes batching-off the decisive winner at
     these rates (nagle delay blows the budget), so converged togglers
     hold their arm instead of hunting between near-tied arms on
     window noise.  Storm cells additionally run slow, deliberate
     togglers — 4 ms decision windows, four observations per arm
     before the bandit trusts it — so a freshly spawned, un-seeded
     toggler force-explores for 2 x 4 x 4 ms = 32 ms, comfortably past
     [churn_settle_bound_us], while a seeded one exploits immediately.
     Flash cells keep the default 1 ms tick: their sparse low-rate
     phases starve 4 ms windows of samples, and a hunting toggler
     pinned on the batching arm for 4 ms at a time inflates latency by
     multiple ms. *)
  let dyn =
    Control.Dynamic
      {
        Control.default_dynamic with
        policy = E2e.Policy.Throughput_under_slo { slo_ns = 150_000.0 };
        epsilon = (if storm then 0.02 else 0.005);
        tick = (if storm then Sim.Time.ms 4 else Sim.Time.ms 1);
        min_observations = (if storm then 4 else 3);
      }
  in
  let envelope =
    if storm then Arrival.Flat
    else Arrival.Square { period_us = 80_000.0; duty = 0.25; high = 10.0 }
  in
  let churn =
    if storm then
      Some
        {
          Fleet.no_churn with
          max_conns = 32;
          script = [ (Sim.Time.ms 60, 6); (Sim.Time.ms 120, -6) ];
        }
    else None
  in
  (* Rates keep every phase dense enough for the estimator to mean
     something: below ~10k rps tenant-wide the per-connection windows
     are starved and Little's-law peeks over near-empty windows read
     as multi-ms garbage no tolerance band can judge.  The flash base
     therefore sits at 15k — its 10x peak genuinely melts the server
     for 20 ms at a time, which is exactly the recovery the flash
     bound is asserting. *)
  let tenant =
    {
      (Fleet.default_tenant ~name:"churny" ~rate_rps:(if storm then 20000.0 else 15000.0))
      with
      Fleet.n_conns = 8;
      batching = dyn;
      envelope;
      churn;
    }
  in
  {
    (Fleet.default_config ~tenants:[ tenant ]) with
    Fleet.seed = 11;
    warmup = Sim.Time.ms 20;
    duration = Sim.Time.ms 160;
    scope = Fleet.Per_conn;
    cold_start_inherit = inherit_prior;
    observe = Some Observe.default_config;
  }

let load_cell ?(inherit_prior = true) load =
  let storm = load = Churn_storm in
  {
    label =
      (if storm then "churn-storm" else "flash-crowd")
      ^ if inherit_prior then "" else " no-inherit";
    config = churn_config ~inherit_prior load;
    (* Mode re-convergence is owed only by storm cells (a flash crowd
       never changes the winning arm), and always against the tight
       churn bound: a spawned toggler that has to re-explore from
       scratch alternates arms for 32 ms whatever the rate envelope is
       doing. *)
    owed =
      {
        Invariants.base with
        measured_progress = true;
        churned = storm;
        settle_us = Some (if storm then churn_settle_bound_us else flash_settle_bound_us);
        mode_settle_us = (if storm then Some churn_settle_bound_us else None);
      };
  }

let churn_grid () = [ load_cell Flash_crowd; load_cell Churn_storm ]

type verdict = { cell : cell; result : Fleet.result; failures : string list }

let ok v = v.failures = []

let run_cell cell =
  let result = Fleet.run cell.config in
  { cell; result; failures = Invariants.check cell.owed result }

let run_grid ?(domains = 1) cells = Par.Pool.map ~domains run_cell cells
