(* Benchmark harness: regenerates every figure of "Batching with
   End-to-End Performance Estimation" (HotOS'25), plus the ablations
   called out in DESIGN.md, Bechamel microbenchmarks of the
   estimator's hot paths and the allocation gate.

   Usage: main.exe [--domains N]
                   [fig1] [fig2] [fig3] [fig4a] [fig4b]
                   [small] [dynamic] [ablate] [micro] [alloc]
                   [fault] [fleet] [churn] [scale] [connscale]
                   (default: all sections)

   --domains N fans independent sweep simulations out over N OCaml
   domains (default: cores - 1); per-seed results are bit-identical to
   the sequential run, only wall-clock time changes.

   Absolute numbers come from the calibrated simulator (see DESIGN.md);
   the claims under test are the shapes: who wins where, where the
   cutoff falls, how far batching extends the SLO range, and whether
   the estimates track the measurements. *)

let pf = Printf.printf

let hr title =
  pf "\n";
  pf "================================================================================\n";
  pf "%s\n" title;
  pf "================================================================================\n"

let opt_us = function None -> "      -" | Some v -> Printf.sprintf "%7.1f" v

let slo_us = Loadgen.Runner.slo_us

(* Set from --domains before any section runs; sweep-shaped sections
   fan their independent simulations out across this many domains. *)
let domains = ref (Par.Pool.default_domains ())

(* Shared sweep configuration: 50 ms warmup + 300 ms measured keeps the
   whole harness to a few minutes while giving >1500 samples per point
   at the lowest rate. *)
let base_config ?(batching = Loadgen.Runner.Static_off) () =
  let c = Loadgen.Runner.default_config ~rate_rps:10e3 ~batching in
  { c with warmup = Sim.Time.ms 50; duration = Sim.Time.ms 300 }

let k r = r /. 1e3

(* ------------------------------------------------------------------ *)
(* Figure 1: the analytic batching model.                              *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  hr "Figure 1 — batching outcome vs client-side cost c (alpha=2, beta=4, n=3)";
  pf "Per-request completion times for n=3 requests queued at t=0.\n";
  pf "Paper: c=1 batching improves both metrics; c=5 degrades both; c=3 mixed.\n\n";
  pf "%4s | %-22s | %-22s | %9s %9s | verdict\n" "c" "batched completions"
    "unbatched completions" "avg(b/u)" "mks(b/u)";
  pf "%s\n" (String.make 110 '-');
  List.iter
    (fun c ->
      let p = E2e.Batch_model.figure1_params ~client_cost:c in
      let b = E2e.Batch_model.batched p in
      let u = E2e.Batch_model.unbatched p in
      let v = E2e.Batch_model.compare p in
      let completions (r : E2e.Batch_model.run) =
        String.concat ", "
          (Array.to_list (Array.map (fun x -> Printf.sprintf "%.0f" x) r.completions))
      in
      let verdict =
        match (v.batching_improves_latency, v.batching_improves_throughput) with
        | true, true -> "batching improves BOTH (Fig 1a)"
        | false, false -> "batching degrades BOTH (Fig 1b)"
        | false, true -> "mixed: tput up, latency down (Fig 1c)"
        | true, false -> "mixed: latency up, tput down"
      in
      pf "%4.0f | %-22s | %-22s | %4.1f/%4.1f %4.0f/%4.0f | %s\n" c (completions b)
        (completions u) b.avg_latency u.avg_latency b.makespan u.makespan verdict)
    [ 1.0; 3.0; 5.0 ];
  pf "\nClient-cost scan (where does the batching verdict flip?):\n";
  let scan =
    E2e.Batch_model.scan_client_cost ~alpha:2.0 ~beta:4.0 ~n:3
      ~costs:[ 0.0; 0.5; 1.0; 1.5; 2.0; 2.5; 3.0; 3.5; 4.0; 4.5; 5.0 ]
  in
  List.iter
    (fun (c, (v : E2e.Batch_model.verdict)) ->
      pf "  c=%.1f  latency:%s  throughput:%s\n" c
        (if v.batching_improves_latency then "batch" else "unbatch")
        (if v.batching_improves_throughput then "batch" else "unbatch"))
    scan

(* ------------------------------------------------------------------ *)
(* Figure 2: bare-metal vs VM client flips the Nagle outcome.          *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  hr "Figure 2 — bare-metal vs VM client at a fixed load (Nagle outcome flips)";
  let rate = 70e3 in
  let vm_mult = 4.0 in
  pf "Fixed offered load %.0f kRPS; the VM client's per-request CPU costs are\n" (k rate);
  pf "%.0fx bare metal (the paper reduces the VM effect to 'c is significantly\n"
    vm_mult;
  pf "increased', Section 2).\n\n";
  let run ~mult ~batching =
    let base = base_config ~batching () in
    Loadgen.Runner.run
      { base with rate_rps = rate; client = { base.client with cpu_multiplier = mult } }
  in
  let cells =
    List.map
      (fun (label, mult) ->
        let on = run ~mult ~batching:Loadgen.Runner.Static_on in
        let off = run ~mult ~batching:Loadgen.Runner.Static_off in
        (label, on, off))
      [ ("bare-metal", 1.0); ("VM", vm_mult) ]
  in
  pf "(a,b) CPU usage at fixed load:\n";
  pf "  %-11s %14s %14s\n" "client" "client-CPU" "server-CPU";
  List.iter
    (fun (label, (on : Loadgen.Runner.result), (off : Loadgen.Runner.result)) ->
      let avg a b = (a +. b) /. 2.0 in
      pf "  %-11s %13.1f%% %13.1f%%\n" label
        (100.0 *. avg on.client_app_util off.client_app_util)
        (100.0 *. avg on.server_app_util off.server_app_util))
    cells;
  pf "\n(c) Mean latency (us):\n";
  pf "  %-11s %12s %12s %10s\n" "client" "nagle-off" "nagle-on" "winner";
  List.iter
    (fun (label, (on : Loadgen.Runner.result), (off : Loadgen.Runner.result)) ->
      pf "  %-11s %12.1f %12.1f %10s\n" label off.measured_mean_us on.measured_mean_us
        (if on.measured_mean_us < off.measured_mean_us then "nagle-on" else "nagle-off"))
    cells;
  match cells with
  | [ (_, bm_on, bm_off); (_, vm_on, vm_off) ] ->
    let bm_flip = bm_on.measured_mean_us < bm_off.measured_mean_us in
    let vm_flip = vm_on.measured_mean_us < vm_off.measured_mean_us in
    pf "\nPaper's claim: the same server-side decision wins for one client and\n";
    pf "loses for the other.  Reproduced: %s (bare: %s wins, VM: %s wins)\n"
      (if bm_flip && not vm_flip then "YES" else "NO")
      (if bm_flip then "nagle-on" else "nagle-off")
      (if vm_flip then "nagle-on" else "nagle-off")
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Figure 3: accuracy of the latency combination against ground truth. *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  hr "Figure 3 — decomposition accuracy: L ~ unacked^l - ackdelay^r + unread^l + unread^r";
  pf "Measured (client timestamps) vs estimated (queue states exchanged through\n";
  pf "the stack), both vantage points and their max-reconciliation.\n\n";
  pf "%6s %6s | %9s | %9s %9s %9s | %7s\n" "kRPS" "nagle" "measured" "est(max)"
    "est(loc)" "est(rem)" "err%";
  pf "%s\n" (String.make 78 '-');
  List.iter
    (fun rate ->
      List.iter
        (fun (label, batching) ->
          let r = Loadgen.Runner.run { (base_config ~batching ()) with rate_rps = rate } in
          let err =
            match r.estimated_us with
            | Some est ->
              Printf.sprintf "%6.1f%%"
                (100.0 *. (est -. r.measured_mean_us) /. r.measured_mean_us)
            | None -> "      -"
          in
          pf "%6.0f %6s | %9.1f | %s %s %s | %s\n" (k rate) label r.measured_mean_us
            (opt_us r.estimated_us) (opt_us r.estimated_local_us)
            (opt_us r.estimated_remote_us) err)
        [ ("off", Loadgen.Runner.Static_off); ("on", Loadgen.Runner.Static_on) ])
    [ 10e3; 40e3; 70e3; 100e3 ];
  pf "\nThe estimate excludes server processing time by construction (Section 3.2),\n";
  pf "so a small constant shortfall at low load is expected; under queueing the\n";
  pf "two converge.\n"

(* ------------------------------------------------------------------ *)
(* Figure 4a: SET-only sweep, Nagle on/off, measured vs estimated.     *)
(* ------------------------------------------------------------------ *)

let fig4a_rates =
  [ 5e3; 10e3; 20e3; 30e3; 40e3; 50e3; 60e3; 70e3; 75e3; 80e3; 90e3; 100e3; 110e3;
    120e3; 130e3; 140e3; 150e3 ]

let print_sweep_table points =
  pf "%6s | %9s %9s | %9s %9s | %6s %6s\n" "kRPS" "off-meas" "off-est" "on-meas"
    "on-est" "off-ok" "on-ok";
  pf "%s\n" (String.make 72 '-');
  List.iter
    (fun (p : Loadgen.Sweep.point) ->
      pf "%6.1f | %9.1f %s | %9.1f %s | %6s %6s\n" (k p.rate_rps) p.off.measured_mean_us
        (opt_us p.off.estimated_us) p.on.measured_mean_us (opt_us p.on.estimated_us)
        (if p.off.measured_mean_us <= slo_us then "yes" else "NO")
        (if p.on.measured_mean_us <= slo_us then "yes" else "NO"))
    points

let fig4a_summary points =
  let show what = function
    | Some v -> pf "  %-46s %.1f kRPS\n" what (k v)
    | None -> pf "  %-46s (not found in sweep)\n" what
  in
  pf "\nHeadline metrics (paper values in parentheses):\n";
  show "measured cutoff (batching starts winning):" (Loadgen.Sweep.cutoff_rps points);
  show "estimated cutoff (must coincide, Fig 4a):"
    (Loadgen.Sweep.estimated_cutoff_rps points);
  show "max sustainable under 500us SLO, nagle-off (37.5):"
    (Loadgen.Sweep.max_sustainable_rps ~which:`Off ~slo_us points);
  show "max sustainable under 500us SLO, nagle-on (72.5):"
    (Loadgen.Sweep.max_sustainable_rps ~which:`On ~slo_us points);
  (match Loadgen.Sweep.range_extension ~slo_us points with
  | Some ext -> pf "  %-46s %.2fx\n" "SLO range extension (paper: 1.93x):" ext
  | None -> pf "  SLO range extension: n/a\n");
  match Loadgen.Sweep.max_sustainable_rps ~which:`Off ~slo_us points with
  | Some rate -> (
    match Loadgen.Sweep.latency_improvement_at ~rate_rps:rate points with
    | Some ratio ->
      pf "  %-46s %.2fx at %.1f kRPS\n" "latency cut at off's SLO edge (paper: 2.80x):"
        ratio (k rate)
    | None -> ())
  | None -> ()

let plot_sweep points =
  let series which marker label =
    {
      Report.Chart.label;
      marker;
      points =
        List.map
          (fun (p : Loadgen.Sweep.point) ->
            let r : Loadgen.Runner.result = which p in
            (p.rate_rps /. 1e3, r.measured_mean_us))
          points;
    }
  in
  let est_series which marker label =
    {
      Report.Chart.label;
      marker;
      points =
        List.filter_map
          (fun (p : Loadgen.Sweep.point) ->
            let r : Loadgen.Runner.result = which p in
            Option.map (fun e -> (p.rate_rps /. 1e3, e)) r.estimated_us)
          points;
    }
  in
  let config =
    {
      Report.Chart.default_config with
      x_label = "offered load, kRPS";
      y_label = "mean latency, us (log scale)";
      y_line = Some (slo_us, '=');
    }
  in
  pf "\n%s\n"
    (Report.Chart.render ~config
       [
         series (fun p -> p.off) 'o' "nagle-off measured";
         series (fun p -> p.on) 'x' "nagle-on measured";
         est_series (fun p -> p.off) '.' "nagle-off estimated";
         est_series (fun p -> p.on) '+' "nagle-on estimated";
       ])

let fig4a () =
  hr "Figure 4a — Redis SET-only (16B keys, 16KiB values): latency vs offered load";
  let base = base_config () in
  let points = Loadgen.Sweep.sweep ~domains:!domains ~base ~rates:fig4a_rates () in
  print_sweep_table points;
  plot_sweep points;
  fig4a_summary points

(* ------------------------------------------------------------------ *)
(* Figure 4b: 95:5 SET:GET mix breaks byte-unit estimation.            *)
(* ------------------------------------------------------------------ *)

let fig4b () =
  hr "Figure 4b — 95:5 SET:GET mix: byte-based estimates mislead; hints stay exact";
  pf "GET responses are 16 KiB (~34x the bytes of 95 SET responses), so byte\n";
  pf "counting is dominated by traffic that Nagle does not delay.\n\n";
  pf "%6s %6s | %9s | %9s %7s | %9s %7s\n" "kRPS" "nagle" "measured" "byte-est" "err%"
    "hint-est" "err%";
  pf "%s\n" (String.make 72 '-');
  let err est meas =
    match est with
    | Some e -> Printf.sprintf "%6.1f%%" (100.0 *. (e -. meas) /. meas)
    | None -> "      -"
  in
  List.iter
    (fun rate ->
      List.iter
        (fun (label, batching) ->
          let base = base_config ~batching () in
          let r =
            Loadgen.Runner.run
              { base with rate_rps = rate; workload = Loadgen.Workload.paper_mixed }
          in
          pf "%6.0f %6s | %9.1f | %s %s | %s %s\n" (k rate) label r.measured_mean_us
            (opt_us r.estimated_us)
            (err r.estimated_us r.measured_mean_us)
            (opt_us r.hint_estimated_us)
            (err r.hint_estimated_us r.measured_mean_us))
        [ ("off", Loadgen.Runner.Static_off); ("on", Loadgen.Runner.Static_on) ])
    [ 10e3; 30e3; 60e3; 90e3; 120e3 ];
  pf "\nPaper's conclusion: tracking syscalls or application hints is preferable\n";
  pf "when message sizes are heterogeneous (Section 3.3).\n"

(* ------------------------------------------------------------------ *)
(* Small requests: the Figure-1 regime made literal.                   *)
(* ------------------------------------------------------------------ *)

let small () =
  hr "Small requests (64B values): whole requests coalesce, the Figure-1 economics";
  pf "Sub-MSS requests are what RFC 896 was written for: with Nagle on, several\n";
  pf "requests ride one packet and the server amortizes its per-wakeup cost\n";
  pf "across them; with Nagle off every request pays full freight.\n\n";
  pf "%6s | %9s %9s | %9s %9s | %8s %8s\n" "kRPS" "off-meas" "on-meas" "off-pkt/r"
    "on-pkt/r" "off-btch" "on-btch";
  pf "%s\n" (String.make 76 '-');
  let base = { (base_config ()) with workload = Loadgen.Workload.small_requests } in
  List.iter
    (fun rate ->
      let p = Loadgen.Sweep.run_pair ~domains:!domains ~base ~rate_rps:rate () in
      pf "%6.0f | %9.1f %9.1f | %9.1f %9.1f | %8.1f %8.1f\n" (k rate)
        p.off.measured_mean_us p.on.measured_mean_us p.off.packets_per_request
        p.on.packets_per_request p.off.server_batch_mean p.on.server_batch_mean)
    [ 10e3; 50e3; 100e3; 200e3; 400e3; 600e3 ];
  pf "\nWith 64B requests the packet-count gap is the whole story: Nagle cuts\n";
  pf "packets per request by coalescing entire requests, not just tails.\n"

(* ------------------------------------------------------------------ *)
(* Dynamic toggling (the Section 5 controller made concrete).          *)
(* ------------------------------------------------------------------ *)

let dynamic () =
  hr "Dynamic epsilon-greedy toggling vs the two static policies";
  pf "%6s | %9s %9s %9s | %8s %7s | %s\n" "kRPS" "off-meas" "on-meas" "dyn-meas"
    "dyn-tput" "toggles" "final";
  pf "%s\n" (String.make 76 '-');
  List.iter
    (fun rate ->
      let run batching =
        Loadgen.Runner.run { (base_config ~batching ()) with rate_rps = rate }
      in
      let off = run Loadgen.Runner.Static_off in
      let on = run Loadgen.Runner.Static_on in
      let dyn = run (Loadgen.Runner.Dynamic Loadgen.Runner.default_dynamic) in
      pf "%6.0f | %9.1f %9.1f %9.1f | %7.1fk %7d | %s\n" (k rate) off.measured_mean_us
        on.measured_mean_us dyn.measured_mean_us (k dyn.achieved_rps) dyn.nagle_toggles
        (match dyn.final_mode with
        | Some m -> E2e.Toggler.mode_to_string m
        | None -> "-");
      let worst = Float.max off.measured_mean_us on.measured_mean_us in
      if dyn.measured_mean_us > worst *. 1.05 then
        pf "        ^ WARNING: dynamic worse than both statics\n")
    [ 20e3; 50e3; 70e3; 90e3; 120e3; 140e3 ];
  pf "\nThe controller should track whichever static mode wins at each load,\n";
  pf "paying a bounded exploration overhead (epsilon = %.2f, 1 ms ticks).\n"
    Loadgen.Runner.default_dynamic.epsilon

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)
(* ------------------------------------------------------------------ *)

let ablate_exchange () =
  pf "\n[ablation] metadata exchange policy vs estimate accuracy (60 kRPS, nagle-off)\n";
  pf "Section 5 claims Little's-law estimates stay accurate as the exchange\n";
  pf "frequency drops.\n";
  pf "  %-22s %9s %9s %8s\n" "exchange" "measured" "estimate" "err%";
  List.iter
    (fun (label, policy) ->
      let base = base_config () in
      let r = Loadgen.Runner.run { base with rate_rps = 60e3; exchange = policy } in
      match r.estimated_us with
      | Some est ->
        pf "  %-22s %9.1f %9.1f %7.1f%%\n" label r.measured_mean_us est
          (100.0 *. (est -. r.measured_mean_us) /. r.measured_mean_us)
      | None -> pf "  %-22s %9.1f         -       -\n" label r.measured_mean_us)
    [
      ("every segment", E2e.Exchange.Every_segment);
      ("periodic 100us", E2e.Exchange.Periodic (Sim.Time.us 100));
      ("periodic 1ms", E2e.Exchange.Periodic (Sim.Time.ms 1));
      ("periodic 10ms", E2e.Exchange.Periodic (Sim.Time.ms 10));
      ("periodic 50ms", E2e.Exchange.Periodic (Sim.Time.ms 50));
    ]

let ablate_units () =
  pf "\n[ablation] message-unit choice vs estimate accuracy (60 kRPS, nagle-off)\n";
  pf "  %-12s %-12s %9s %9s %8s\n" "workload" "unit" "measured" "estimate" "err%";
  List.iter
    (fun (wl_label, workload) ->
      List.iter
        (fun unit_mode ->
          let base = base_config () in
          let r = Loadgen.Runner.run { base with rate_rps = 60e3; workload; unit_mode } in
          let est =
            if unit_mode = E2e.Units.Hinted then r.hint_estimated_us else r.estimated_us
          in
          match est with
          | Some e ->
            pf "  %-12s %-12s %9.1f %9.1f %7.1f%%\n" wl_label
              (E2e.Units.to_string unit_mode) r.measured_mean_us e
              (100.0 *. (e -. r.measured_mean_us) /. r.measured_mean_us)
          | None ->
            pf "  %-12s %-12s %9.1f         -       -\n" wl_label
              (E2e.Units.to_string unit_mode) r.measured_mean_us)
        E2e.Units.all)
    [
      ("set-only", Loadgen.Workload.paper_set_only);
      ("95:5 mix", Loadgen.Workload.paper_mixed);
    ]

let ablate_epsilon () =
  pf "\n[ablation] exploration rate epsilon (90 kRPS, SLO policy)\n";
  pf "  %-8s %9s %9s %8s\n" "epsilon" "mean-us" "tput-k" "toggles";
  List.iter
    (fun epsilon ->
      let d = { Loadgen.Runner.default_dynamic with epsilon } in
      let r =
        Loadgen.Runner.run
          { (base_config ~batching:(Loadgen.Runner.Dynamic d) ()) with rate_rps = 90e3 }
      in
      pf "  %-8.2f %9.1f %9.1f %8d\n" epsilon r.measured_mean_us (k r.achieved_rps)
        r.nagle_toggles)
    [ 0.0; 0.02; 0.05; 0.1; 0.25; 0.5 ]

let ablate_tick () =
  pf "\n[ablation] toggling granularity (90 kRPS; Section 5 suggests ~1 kernel tick)\n";
  pf "  %-8s %9s %8s\n" "tick" "mean-us" "toggles";
  List.iter
    (fun (label, tick) ->
      let d = { Loadgen.Runner.default_dynamic with tick } in
      let r =
        Loadgen.Runner.run
          { (base_config ~batching:(Loadgen.Runner.Dynamic d) ()) with rate_rps = 90e3 }
      in
      pf "  %-8s %9.1f %8d\n" label r.measured_mean_us r.nagle_toggles)
    [
      ("100us", Sim.Time.us 100);
      ("1ms", Sim.Time.ms 1);
      ("4ms", Sim.Time.ms 4);
      ("10ms", Sim.Time.ms 10);
      ("50ms", Sim.Time.ms 50);
    ]

let ablate_gro () =
  pf "\n[ablation] receive coalescing (GRO) on/off: the amortization channel\n";
  pf "  %-6s %-6s %9s %9s %9s\n" "kRPS" "gro" "off-meas" "on-meas" "on-wins";
  List.iter
    (fun rate ->
      List.iter
        (fun gro_enabled ->
          let base = base_config () in
          let run b =
            Loadgen.Runner.run { base with rate_rps = rate; gro_enabled; batching = b }
          in
          let off = run Loadgen.Runner.Static_off in
          let on = run Loadgen.Runner.Static_on in
          pf "  %-6.0f %-6s %9.1f %9.1f %9s\n" (k rate)
            (if gro_enabled then "on" else "off")
            off.measured_mean_us on.measured_mean_us
            (if on.measured_mean_us < off.measured_mean_us then "yes" else "no"))
        [ true; false ])
    [ 60e3; 100e3 ]

let ablate_aimd () =
  pf "\n[ablation] AIMD batch-limit controller vs binary modes (Section 5)\n";
  pf "  %-6s %9s %9s %9s %11s\n" "kRPS" "off-meas" "on-meas" "aimd-meas" "final-limit";
  List.iter
    (fun rate ->
      let run b =
        Loadgen.Runner.run { (base_config ~batching:b ()) with rate_rps = rate }
      in
      let off = run Loadgen.Runner.Static_off in
      let on = run Loadgen.Runner.Static_on in
      let aimd = run (Loadgen.Runner.Aimd_limit Loadgen.Runner.default_aimd) in
      pf "  %-6.0f %9.1f %9.1f %9.1f %11s\n" (k rate) off.measured_mean_us
        on.measured_mean_us aimd.measured_mean_us
        (match aimd.final_batch_limit with Some l -> string_of_int l | None -> "-"))
    [ 30e3; 70e3; 110e3; 140e3 ]

let ablate_burst () =
  pf "\n[ablation] bursty arrivals (burst=4): batching gains appear earlier\n";
  pf "  %-6s %-6s %9s %9s\n" "kRPS" "burst" "off-meas" "on-meas";
  List.iter
    (fun rate ->
      List.iter
        (fun burst ->
          let base = base_config () in
          let run b =
            Loadgen.Runner.run { base with rate_rps = rate; burst; batching = b }
          in
          let off = run Loadgen.Runner.Static_off in
          let on = run Loadgen.Runner.Static_on in
          pf "  %-6.0f %-6d %9.1f %9.1f\n" (k rate) burst off.measured_mean_us
            on.measured_mean_us)
        [ 1; 4 ])
    [ 40e3; 80e3 ]

let ablate_cork () =
  pf "\n[ablation] auto-corking (always-on sender batching below the socket)\n";
  pf "  %-6s %-6s %9s\n" "kRPS" "cork" "mean-us";
  List.iter
    (fun rate ->
      List.iter
        (fun cork ->
          let base = base_config () in
          let r = Loadgen.Runner.run { base with rate_rps = rate; cork } in
          pf "  %-6.0f %-6s %9.1f\n" (k rate)
            (if cork then "on" else "off")
            r.measured_mean_us)
        [ false; true ])
    [ 40e3; 100e3 ]

let ablate_tail () =
  pf "\n[ablation] online tail estimation (P2, O(1) space) vs exact percentiles\n";
  pf "The paper defers tail metrics to future work; this is the building block.\n";
  pf "  %-6s %11s %11s\n" "kRPS" "exact-p99" "p2-p99";
  List.iter
    (fun rate ->
      let r = Loadgen.Runner.run { (base_config ()) with rate_rps = rate } in
      pf "  %-6.0f %11.1f %s\n" (k rate) r.measured_p99_us
        (match r.client_p99_est_us with
        | Some v -> Printf.sprintf "%11.1f" v
        | None -> "          -"))
    [ 20e3; 60e3; 75e3 ]

let ablate_loss () =
  pf "\n[ablation] packet loss: Nagle under lossy conditions (cc enabled)\n";
  pf "A dropped tail or response stalls the stream on the RTO floor; fewer\n";
  pf "packets also means fewer loss opportunities per request.\n";
  pf "  %-10s %9s %9s %9s %9s\n" "loss" "off-meas" "on-meas" "off-retx" "on-retx";
  List.iter
    (fun loss_prob ->
      let base = base_config () in
      let run b =
        Loadgen.Runner.run { base with rate_rps = 40e3; cc = true; loss_prob; batching = b }
      in
      let off = run Loadgen.Runner.Static_off in
      let on = run Loadgen.Runner.Static_on in
      pf "  %-10.4f %9.1f %9.1f %9.3f %9.3f\n" loss_prob off.measured_mean_us
        on.measured_mean_us
        (float_of_int off.packets *. loss_prob /. float_of_int (max 1 off.completed))
        (float_of_int on.packets *. loss_prob /. float_of_int (max 1 on.completed)))
    [ 0.0; 1e-5; 1e-4 ]

let ablate_rtt () =
  pf "\n[ablation] RTT as a latency signal (Section 2: 'RTT performs poorly, as\n";
  pf "it does not account for application read delays')\n";
  pf "  %-6s %9s %9s %9s\n" "kRPS" "measured" "e2e-est" "SRTT";
  List.iter
    (fun rate ->
      let r = Loadgen.Runner.run { (base_config ()) with rate_rps = rate } in
      pf "  %-6.0f %9.1f %s %s\n" (k rate) r.measured_mean_us (opt_us r.estimated_us)
        (opt_us r.client_srtt_us))
    [ 10e3; 40e3; 70e3; 75e3; 100e3 ];
  pf "Under load the end-to-end estimate tracks the blow-up while SRTT stays\n";
  pf "near the wire RTT: queueing happens in the unread queues RTT cannot see.\n"

let ablate_tso () =
  pf "\n[ablation] TCP segmentation offload (64 KiB super-segments at the sender)\n";
  pf "  %-6s %-6s %9s %9s\n" "kRPS" "tso" "off-meas" "on-meas";
  List.iter
    (fun rate ->
      List.iter
        (fun tso ->
          let base = base_config () in
          let run b = Loadgen.Runner.run { base with rate_rps = rate; tso; batching = b } in
          let off = run Loadgen.Runner.Static_off in
          let on = run Loadgen.Runner.Static_on in
          pf "  %-6.0f %-6s %9.1f %9.1f\n" (k rate)
            (if tso then "on" else "off")
            off.measured_mean_us on.measured_mean_us)
        [ false; true ])
    [ 60e3; 100e3 ]

let ablate_offline () =
  pf "\n[ablation] offline counter collection (the Section 3.4 prototype) vs\n";
  pf "the in-band option exchange (the Section 5 mechanism)\n";
  (* Same traffic, two estimation pipelines: poll both ends' counters
     every 2 ms and analyze offline, vs the estimator fed in-band. *)
  let engine = Sim.Engine.create () in
  let conn = Tcp.Conn.create engine () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  Tcp.Socket.on_readable b (fun () ->
      let d = Tcp.Socket.recv b (Tcp.Socket.recv_available b) in
      if String.length d > 0 then Tcp.Socket.send b "ok");
  Tcp.Socket.on_readable a (fun () ->
      ignore (Tcp.Socket.recv a (Tcp.Socket.recv_available a)));
  let log = E2e.Counter_log.create () in
  let rec poll () =
    let at = Sim.Engine.now engine in
    E2e.Counter_log.record log ~at
      ~local:(E2e.Estimator.local_snapshot (Tcp.Socket.estimator a) ~at)
      ~remote:(E2e.Estimator.local_snapshot (Tcp.Socket.estimator b) ~at);
    if Sim.Time.compare at (Sim.Time.ms 200) < 0 then
      Sim.Engine.post engine ~after:(Sim.Time.ms 2) poll
  in
  poll ();
  for i = 0 to 4_000 do
    Sim.Engine.post_at engine ~at:(Sim.Time.us (i * 50)) (fun () ->
        Tcp.Socket.send a (String.make 2000 'x'))
  done;
  Sim.Engine.run_until engine (Sim.Time.ms 205);
  let offline =
    match E2e.Counter_log.mean_latency_ns log with Some l -> l /. 1e3 | None -> nan
  in
  let inband =
    match
      E2e.Estimator.peek_estimate (Tcp.Socket.estimator a) ~at:(Sim.Engine.now engine)
    with
    | Some { latency_ns = Some l; _ } -> l /. 1e3
    | _ -> nan
  in
  pf "  offline (2ms ethtool-style polling) : %8.1f us over %d dumps\n" offline
    (E2e.Counter_log.length log);
  pf "  in-band (TCP-option exchange)       : %8.1f us\n" inband;
  pf "  relative difference                 : %8.1f%%\n"
    (100.0 *. Float.abs (offline -. inband) /. inband)

let ablate_multiconn () =
  pf "\n[ablation] multiple connections sharing the NIC and cores (Section 3.2:\n";
  pf "per-connection estimates are aggregated)\n";
  pf "  %-6s %-6s %9s %9s %9s %9s\n" "kRPS" "conns" "off-meas" "on-meas" "agg-est"
    "hint-est";
  List.iter
    (fun rate ->
      List.iter
        (fun n_conns ->
          let base = base_config () in
          let run b =
            Loadgen.Runner.run { base with rate_rps = rate; n_conns; batching = b }
          in
          let off = run Loadgen.Runner.Static_off in
          let on = run Loadgen.Runner.Static_on in
          pf "  %-6.0f %-6d %9.1f %9.1f %s %s\n" (k rate) n_conns off.measured_mean_us
            on.measured_mean_us (opt_us off.estimated_us) (opt_us off.hint_estimated_us))
        [ 1; 4 ])
    [ 40e3; 80e3 ]

let ablate () =
  hr "Ablations (design choices called out in DESIGN.md)";
  ablate_exchange ();
  ablate_units ();
  ablate_epsilon ();
  ablate_tick ();
  ablate_gro ();
  ablate_aimd ();
  ablate_burst ();
  ablate_cork ();
  ablate_loss ();
  ablate_tail ();
  ablate_rtt ();
  ablate_tso ();
  ablate_offline ();
  ablate_multiconn ()

(* ------------------------------------------------------------------ *)
(* Microbenchmarks: the per-transition costs the kernel would pay.     *)
(* ------------------------------------------------------------------ *)

let micro () =
  hr "Microbenchmarks — estimator hot paths (Section 5: the overhead must be small)";
  let open Bechamel in
  let queue_state_track =
    let q = E2e.Queue_state.create ~at:0 in
    let t = ref 0 in
    Test.make ~name:"queue_state.track"
      (Staged.stage (fun () ->
           t := !t + 17;
           E2e.Queue_state.track q ~at:!t 1;
           E2e.Queue_state.track q ~at:(!t + 5) (-1)))
  in
  let get_avgs =
    let q = E2e.Queue_state.create ~at:0 in
    E2e.Queue_state.track q ~at:0 4;
    E2e.Queue_state.track q ~at:100 (-2);
    let prev = E2e.Queue_state.snapshot q ~at:200 in
    let cur = E2e.Queue_state.snapshot q ~at:10_000 in
    Test.make ~name:"queue_state.get_avgs"
      (Staged.stage (fun () -> ignore (E2e.Queue_state.get_avgs ~prev ~cur)))
  in
  let triple =
    let s : E2e.Queue_state.share = { time = 1_000_000; total = 123; integral = 45e6 } in
    ({ unacked = s; unread = s; ackdelay = s } : E2e.Exchange.triple)
  in
  let encode =
    Test.make ~name:"exchange.encode_36B"
      (Staged.stage (fun () -> ignore (E2e.Exchange.encode triple)))
  in
  let decode =
    let wire = E2e.Exchange.encode triple in
    Test.make ~name:"exchange.decode_36B"
      (Staged.stage (fun () -> ignore (E2e.Exchange.decode wire)))
  in
  let option_codec =
    let wire = Tcp.Options.encode [ Tcp.Options.E2e_state triple ] in
    Test.make ~name:"tcp_option.decode_40B"
      (Staged.stage (fun () -> ignore (Tcp.Options.decode wire)))
  in
  let ewma =
    let e = E2e.Ewma.create ~alpha:0.3 in
    Test.make ~name:"ewma.update"
      (Staged.stage (fun () -> ignore (E2e.Ewma.update e 42.0)))
  in
  let tests =
    Test.make_grouped ~name:"e2e"
      [ queue_state_track; get_avgs; encode; decode; option_codec; ewma ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  pf "\n%-36s %12s\n" "benchmark" "ns/op";
  pf "%s\n" (String.make 50 '-');
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  List.iter
    (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some (est :: _) -> pf "%-36s %12.1f\n" name est
      | Some [] | None -> pf "%-36s %12s\n" name "-")
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows);
  pf "\nA TRACK call is a handful of nanoseconds: cheap enough to run on every\n";
  pf "queue transition, as the prototype does.\n"

(* ------------------------------------------------------------------ *)
(* Allocation gate: every probe within its ceiling of words allocated. *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words allocated per call, averaged over enough iterations
   that a single boxed value shows up as a hard failure.  Each thunk is
   warmed first so one-time growth (heap arrays, lazy state) is not
   billed to the steady state. *)
let alloc_per_op f =
  for _ = 1 to 100 do
    f ()
  done;
  let iters = 100_000 in
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int iters

(* Byte-path budget: one request from a [Kv.Client] through a
   [Tcp.Conn] to a [Kv.Server] and its reply back, run to quiescence,
   in words allocated per request.  The server's store holds a 16 KiB
   value under "k" for GETs to read.  Allocated words are minor + major
   - promoted, so a word promoted out of the minor heap is not counted
   twice.  Minor words come from [Gc.minor_words]: on OCaml 5.1 the
   minor count in [Gc.counters] leaves out part of what was allocated
   since the last minor collection, so it moved with GC timing by up to
   a minor heap per window.  The count is exact: the simulation is
   deterministic and nothing here depends on GC timing. *)
let bytepath_words_per_req cmd ~requests =
  let engine = Sim.Engine.create () in
  let host =
    { Tcp.Conn.default_host with socket = { Tcp.Socket.default_config with nagle = false } }
  in
  let conn = Tcp.Conn.create engine ~a:host ~b:host () in
  let store = Kv.Store.create () in
  Kv.Store.set store ~now:Sim.Time.zero "k" (String.make 16_384 'v');
  ignore
    (Kv.Server.create engine ~cpu:(Sim.Cpu.create engine) ~socket:(Tcp.Conn.sock_b conn)
       ~store Kv.Server.default_config);
  let client =
    Kv.Client.create engine ~cpu:(Sim.Cpu.create engine) ~socket:(Tcp.Conn.sock_a conn)
      Kv.Client.default_config
  in
  let round_trips n =
    for _ = 1 to n do
      Kv.Client.request client cmd ~on_complete:(fun ~latency:_ _ -> ());
      Sim.Engine.run engine
    done
  in
  round_trips 100;
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  round_trips requests;
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  let words = minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0) in
  if Kv.Client.completed client <> requests + 100 then failwith "bytepath: lost a reply";
  words /. float_of_int requests

let set_of_size n = Kv.Command.Set { key = "k"; value = String.make n 'v'; ttl = None }

(* Construction budget: words allocated to build one connection — a
   [Tcp.Conn] (two sockets, two links, two GROs) with the [Kv.Server]
   and [Kv.Client] on its ends — averaged over [builds].  The CPUs and
   the store are shared, as a fleet shares them.  Counted like the
   byte-path probes, and as exact. *)
let conn_build_words ~builds =
  let engine = Sim.Engine.create () in
  let cpu = Sim.Cpu.create engine and store = Kv.Store.create () in
  let build () =
    let conn = Tcp.Conn.create engine ~cpu_a:cpu ~cpu_b:cpu () in
    ignore
      (Kv.Server.create engine ~cpu ~socket:(Tcp.Conn.sock_b conn) ~store
         Kv.Server.default_config);
    ignore
      (Kv.Client.create engine ~cpu ~socket:(Tcp.Conn.sock_a conn) Kv.Client.default_config)
  in
  build ();
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  for _ = 1 to builds do
    build ()
  done;
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)) /. float_of_int builds

(* An estimator with a departure on each of its three queues in both
   its local and its remote window, so an estimate takes every branch
   of Algorithm 2. *)
let busy_estimator () =
  let e = E2e.Estimator.create ~at:0 in
  let share time total integral : E2e.Queue_state.share = { time; total; integral } in
  let remote time n =
    let s = share time n (float_of_int (n * 7_000)) in
    { E2e.Exchange.unacked = s; unread = s; ackdelay = s }
  in
  E2e.Estimator.ingest_remote e ~at:(Sim.Time.us 10) (remote (Sim.Time.us 10) 1);
  E2e.Estimator.ingest_remote e ~at:(Sim.Time.us 90) (remote (Sim.Time.us 90) 4);
  List.iter
    (fun track ->
      track e ~at:(Sim.Time.us 20) 2;
      track e ~at:(Sim.Time.us 50) (-1))
    [ E2e.Estimator.track_unacked; E2e.Estimator.track_unread; E2e.Estimator.track_ackdelay ];
  e

(* Each call of [Estimator.estimate] may allocate its result and
   nothing else: the [Some], the record, and an option and a box for each
   of its four floats, every one present here. *)
let estimate_ceiling () =
  match E2e.Estimator.peek_estimate (busy_estimator ()) ~at:(Sim.Time.us 100) with
  | Some est -> float_of_int (Obj.reachable_words (Obj.repr (Some est)))
  | None -> failwith "alloc: the busy estimator has no estimate"

let binary_write_words () =
  let records =
    Array.map
      (fun (id, event) -> { Sim.Trace.at = 1_000; id; event })
      [|
        ("c0", Sim.Trace.Req_issued { req = 7; off = 448; len = 64 });
        ("c0", Sim.Trace.Segment_sent { seq = 448; len = 64; push = true; retx = false });
        ("s0", Sim.Trace.Segment_received { seq = 448; fresh = 64 });
        ("s0", Sim.Trace.Srv_start { req = 7 });
        ("s0", Sim.Trace.Share_ingested { unacked_total = 3; unread_total = 7; ackdelay_total = 1 });
        ("c0", Sim.Trace.Ack_received { acked = 64; una = 512 });
        ( "c0",
          Sim.Trace.Estimate_computed
            { latency_us = Some 31.5; throughput = 1e5; window_us = 1000.0 } );
        ("c0", Sim.Trace.Request_done { latency_us = 28.25 });
        ("c0", Sim.Trace.Nagle_toggle { enabled = true });
      |]
  in
  let oc = open_out_bin Filename.null in
  let w = Sim.Trace.Binary.writer oc in
  let i = ref 0 in
  let words =
    alloc_per_op (fun () ->
        Sim.Trace.Binary.write w records.(!i mod Array.length records);
        incr i)
  in
  close_out oc;
  words

(* The gate's probes as (name, unit, measure, ceiling): a probe fails
   when [measure ()] reads above its ceiling.  The units are the
   groups of BENCH_alloc.json. *)
let alloc_probes () =
  let zero name f = (name, "minor_words_per_op", (fun () -> alloc_per_op f), 0.0) in
  let trace_off = Sim.Trace.create ~capacity:256 () in
  let span_trace_opt : Sim.Trace.t option = Some trace_off in
  let span_guarded f =
    match span_trace_opt with
    | Some tr when Sim.Trace.enabled tr -> f tr
    | Some _ | None -> ()
  in
  let heap = Sim.Event_heap.create () in
  let heap_handle = Sim.Event_heap.handle () in
  let idle_engine = Sim.Engine.create () in
  let post_engine = Sim.Engine.create () in
  let noop () = () in
  (* a call's receiver and packet, as the byte path passes them *)
  let call_engine = Sim.Engine.create () and rx = ref 0 and packet = Bytes.create 64 in
  let receive (rx : int ref) (_ : Bytes.t) = incr rx in
  let rearm_engine = Sim.Engine.create () and rearm_handle = Sim.Engine.handle () in
  let delack_engine = Sim.Engine.create () in
  let delack = Tcp.Delayed_ack.create delack_engine ~send_ack:ignore () in
  let histo = Sim.Histo.create () in
  let ledger_off = E2e.Ledger.create ~trace:trace_off ~group:"bench" in
  let steer = Shard.Steer.create ~shards:4 in
  let rng = Sim.Rng.create ~seed:42 in
  let fold_acc = E2e.Aggregate.acc () in
  let peeked = busy_estimator () and closed = busy_estimator () and closed_at = ref 0 in
  let timer_engine = Sim.Engine.create () in
  let timer = ref (Sim.Engine.schedule timer_engine ~after:(Sim.Time.ms 200) noop) in
  let estimate_est = busy_estimator () in
  let ingest_est = busy_estimator () in
  let remote_share time =
    let s : E2e.Queue_state.share = { time; total = 4; integral = 28_000.0 } in
    E2e.Exchange.of_triple { unacked = s; unread = s; ackdelay = s }
  in
  let latest_share = remote_share (Sim.Time.us 90) and future_share = remote_share (Sim.Time.us 200) in
  let share_est = busy_estimator () and hint = E2e.Hints.tracker ~at:0 in
  E2e.Hints.create hint ~at:(Sim.Time.us 20) 2;
  let hint = Some hint in
  let bytepath name cmd requests ceiling =
    (name, "words_per_req", (fun () -> bytepath_words_per_req cmd ~requests), ceiling)
  in
  [
    zero "trace.emitf_guarded_disabled" (fun () ->
        if Sim.Trace.enabled trace_off then
          Sim.Trace.emitf trace_off ~at:0 ~tag:"bench" "seq=%d len=%d" 42 1448);
    zero "trace.event_guarded_disabled" (fun () ->
        if Sim.Trace.enabled trace_off then
          Sim.Trace.event trace_off ~at:0 ~id:"c0"
            (Sim.Trace.Segment_sent { seq = 42; len = 1448; push = true; retx = false }));
    zero "span.req_event_guarded_disabled" (fun () ->
        span_guarded (fun tr ->
            Sim.Trace.event tr ~at:0 ~id:"c0"
              (Sim.Trace.Req_issued { req = 42; off = 60_000; len = 72 })));
    zero "event_heap.push_fire" (fun () ->
        Sim.Event_heap.push heap ~at:0 ~seq:0 Sim.Event_heap.none receive rx packet;
        Sim.Event_heap.fire heap);
    zero "event_heap.push_remove" (fun () ->
        Sim.Event_heap.push heap ~at:0 ~seq:0 heap_handle receive rx packet;
        Sim.Event_heap.remove heap heap_handle);
    zero "engine.post_step" (fun () ->
        Sim.Engine.post post_engine ~after:0 noop;
        ignore (Sim.Engine.step post_engine));
    (* A packet hop: the receiver and the packet ride the event. *)
    zero "engine.call_step" (fun () ->
        Sim.Engine.call_at call_engine ~at:(Sim.Engine.now call_engine) receive rx packet;
        ignore (Sim.Engine.step call_engine));
    (* A restarted timer that owns its handle: cancel, then re-arm. *)
    zero "engine.timer_rearm" (fun () ->
        Sim.Engine.cancel rearm_engine rearm_handle;
        Sim.Engine.arm rearm_engine rearm_handle ~after:(Sim.Time.ms 200) receive rx packet);
    zero "engine.run_until_idle" (fun () -> Sim.Engine.run_until idle_engine 0);
    zero "delack.on_ack_sent_idle" (fun () -> Tcp.Delayed_ack.on_ack_sent delack);
    zero "histo.add" (fun () -> Sim.Histo.add histo 123.456);
    zero "ledger.completion_disabled" (fun () ->
        E2e.Ledger.completion ledger_off ~latency:123_456);
    zero "shard.steer_disabled" (fun () -> ignore (Shard.Steer.lookup steer "bare/c42"));
    zero "rng.int" (fun () -> ignore (Sim.Rng.int rng ~bound:1_000_000));
    (* A group tick's step: one estimator's estimate folded into the
       aggregate, peeked and with its windows closed. *)
    zero "estimator.fold" (fun () ->
        ignore (E2e.Estimator.fold peeked ~at:(Sim.Time.us 100) ~advance:false fold_acc);
        closed_at := !closed_at + Sim.Time.us 100;
        E2e.Estimator.track_unacked closed ~at:(!closed_at - Sim.Time.us 30) 1;
        E2e.Estimator.track_unacked closed ~at:(!closed_at - Sim.Time.us 10) (-1);
        ignore (E2e.Estimator.fold closed ~at:!closed_at ~advance:true fold_acc));
    (* A received share checked and ingested in place, tracing off:
       one accepted (the latest share again, which is not behind
       itself) and one rejected (from the future). *)
    zero "estimator.ingest_share" (fun () ->
        E2e.Estimator.ingest_wire ingest_est ~at:(Sim.Time.us 100) latest_share;
        E2e.Estimator.ingest_wire ingest_est ~at:(Sim.Time.us 100) future_share);
    (* The metadata a socket puts on a segment, a share with its hint,
       costs its one record of ten floats (11 words) and nothing else. *)
    ( "socket.share_snapshot",
      "words_per_op",
      (fun () ->
        alloc_per_op (fun () ->
            ignore (E2e.Estimator.share share_est ~at:(Sim.Time.us 100) ~hint))),
      11.0 );
    (* A restarted timer (cancel, then schedule anew) pays for the
       two-word handle record [schedule] returns, and nothing else. *)
    ( "engine.timer_restart",
      "words_per_op",
      (fun () ->
        alloc_per_op (fun () ->
            Sim.Engine.cancel timer_engine !timer;
            timer := Sim.Engine.schedule timer_engine ~after:(Sim.Time.ms 200) noop)),
      2.0 );
    ( "estimator.estimate",
      "words_per_op",
      (fun () ->
        alloc_per_op (fun () ->
            ignore (E2e.Estimator.peek_estimate estimate_est ~at:(Sim.Time.us 100)))),
      estimate_ceiling () );
    (* [Trace.Binary.write] of a record with no string field allocates
       nothing: its id is one of the last few names it interned, found
       without a table lookup. *)
    ("trace.binary_write", "words_per_op", binary_write_words, 0.0);
    (* Each ceiling is 1.25x the words per request measured once the
       packet hops and the timers queued calls instead of closures
       (1,006.7, 294.35 and 877.26). *)
    bytepath "bytepath.set16k_roundtrip" (set_of_size 16_384) 500 1_258.0;
    bytepath "bytepath.set64_roundtrip" (set_of_size 64) 5_000 368.0;
    bytepath "bytepath.get16k_roundtrip" (Kv.Command.Get "k") 500 1_097.0;
    (* 1.25x the words one connection takes to build once its cold
       socket state is built on first use, its FIFOs are threaded
       through their entries and its GROs hold their receiver instead
       of a closure. *)
    ( "conn.build",
      "words_per_conn",
      (fun () -> conn_build_words ~builds:1_000),
      1.25 *. 351.0 );
  ]

let alloc () =
  hr "Allocation gate — every probe within its words ceiling (else exit 1)";
  pf "Every probe is a per-event, per-segment, per-request or per-connection\n";
  pf "path that production runs execute with tracing disabled; a reading above\n";
  pf "its ceiling is a regression.\n\n";
  pf "%-34s %-18s %12s %10s\n" "probe" "unit" "words" "ceiling";
  pf "%s\n" (String.make 77 '-');
  let results =
    List.map
      (fun (name, unit, measure, ceiling) ->
        let words = measure () in
        pf "%-34s %-18s %12.4f %10g\n" name unit words ceiling;
        (name, unit, words, ceiling))
      (alloc_probes ())
  in
  let bad = List.filter (fun (_, _, words, ceiling) -> words > ceiling) results in
  let group unit =
    let in_unit (name, u, words, ceiling) =
      if u <> unit then None
      else Some (name, Report.Json.(Obj [ ("value", Float words); ("ceiling", Float ceiling) ]))
    in
    (unit, Report.Json.Obj (List.filter_map in_unit results))
  in
  let units = [ "minor_words_per_op"; "words_per_op"; "words_per_req"; "words_per_conn" ] in
  Report.Json.to_file "BENCH_alloc.json"
    Report.Json.(
      Obj ((("section", String "alloc") :: List.map group units) @ [ ("pass", Bool (bad = [])) ]));
  pf "  wrote BENCH_alloc.json\n";
  match bad with
  | [] -> pf "alloc-gate          : all %d probes within their ceilings\n" (List.length results)
  | bad ->
    List.iter
      (fun (name, unit, words, ceiling) ->
        pf "alloc-gate FAILURE  : %s allocates %.4f %s > %g\n" name words unit ceiling)
      bad;
    exit 1

(* ------------------------------------------------------------------ *)
(* Fault injection: degradation curves under bursty loss / blackouts.  *)
(* ------------------------------------------------------------------ *)

let fault () =
  hr "Fault injection — degradation curves under bursty loss and blackouts";
  (* Chaos-grid physics: recovery is gated on the 200ms minimum RTO, so
     cells run a 400ms window at a rate the congestion-controlled path
     can absorb while draining a post-outage backlog. *)
  let base =
    {
      (base_config ~batching:(Loadgen.Runner.Dynamic Loadgen.Runner.default_dynamic) ())
      with
      rate_rps = 10e3;
      warmup = Sim.Time.ms 20;
      duration = Sim.Time.ms 400;
    }
  in
  (* Each verdict comes back with its grid coordinates and the sole
     tenant, control group and run detail of its one-tenant fleet. *)
  let curve ?(base = base) ~losses ~blackouts_ms () =
    let coords =
      List.concat_map (fun loss -> List.map (fun b -> (loss, b)) blackouts_ms) losses
    in
    List.map2
      (fun (loss, blackout_ms) (v : Loadgen.Chaos.verdict) ->
        match (v.result.tenants, v.result.groups, v.result.detail) with
        | [ t ], [ g ], Some d -> (loss, blackout_ms, v, t, g, d)
        | _ -> invalid_arg "fault: expected a one-tenant fleet")
      coords
      (Loadgen.Chaos.run_grid ~domains:!domains
         (Loadgen.Chaos.grid ~base ~losses ~reorders:[ 0.0 ] ~blackouts_ms ()))
  in
  let recovery_losses = [ 0.0; 0.005; 0.01; 0.02; 0.05 ] in
  let loss_curve = curve ~losses:recovery_losses ~blackouts_ms:[ 0.0 ] () in
  let blackout_curve = curve ~losses:[ 0.0 ] ~blackouts_ms:[ 10.0; 20.0; 40.0 ] () in
  let row (_, _, (v : Loadgen.Chaos.verdict), (t : Loadgen.Fleet.tenant_result),
      (g : Loadgen.Fleet.group_result), (d : Loadgen.Fleet.run_detail)) =
    pf "  %-32s  %6.1f kRPS  p99 %9.1f us  drops %5d  freezes %s  %s\n" v.cell.label
      (k t.t_achieved_rps) t.t_p99_us d.d_link_dropped
      (match g.g_degrade_freezes with None -> "-" | Some n -> string_of_int n)
      (if Loadgen.Chaos.ok v then "ok" else String.concat "; " v.failures)
  in
  pf "loss curve (Gilbert-Elliott bursts, no blackout):\n";
  List.iter row loss_curve;
  pf "blackout curve (no loss):\n";
  List.iter row blackout_curve;
  (* Loss recovery head-to-head: the same bursty-loss curve with the
     SACK scoreboard (default) against the historical go-back-N fast
     retransmit.  Burst losses punch multiple holes into one window;
     go-back-N repairs one hole per round trip (or RTO) while SACK
     retransmits exactly the holes, so its tail should strictly
     dominate at every positive loss rate. *)
  let gbn_curve =
    curve ~base:{ base with Loadgen.Runner.sack = false } ~losses:recovery_losses
      ~blackouts_ms:[ 0.0 ] ()
  in
  pf "recovery comparison (SACK scoreboard vs go-back-N, same bursty loss):\n";
  (* A run that completed nothing inside the measured window reports a
     p99 of 0 — that is starvation, the worst possible tail, so rank it
     as infinite rather than letting 0 "win" the comparison. *)
  let eff_p99 (t : Loadgen.Fleet.tenant_result) =
    if t.t_completed = 0 then infinity else t.t_p99_us
  in
  let dominated = ref true in
  let comparison =
    List.map2
      (fun (loss, _, _, s, _, _) (_, _, _, g, _, _) ->
        let sp = eff_p99 s and gp = eff_p99 g in
        if loss > 0.0 && sp >= gp then dominated := false;
        pf "  loss=%-6g  sack p99 %9s  gbn p99 %9s  %s\n" loss
          (if sp = infinity then "starved" else Printf.sprintf "%.1f us" sp)
          (if gp = infinity then "starved" else Printf.sprintf "%.1f us" gp)
          (if loss = 0.0 then "(lossless: identical recovery path)"
           else if sp < gp then "sack wins"
           else "gbn wins");
        Report.Json.(
          Obj
            [
              ("loss", Float loss);
              ("sack_p99_us", Float sp);
              ("gbn_p99_us", Float gp);
              ("sack_krps", Float (k s.t_achieved_rps));
              ("gbn_krps", Float (k g.t_achieved_rps));
              ("sack_wins", Bool (loss = 0.0 || sp < gp));
            ]))
      loss_curve gbn_curve
  in
  pf "  SACK strictly dominates go-back-N at positive loss: %b\n" !dominated;
  let cell_json (loss, blackout_ms, v, (t : Loadgen.Fleet.tenant_result),
      (g : Loadgen.Fleet.group_result), (d : Loadgen.Fleet.run_detail)) =
    Report.Json.(
      Obj
        [
          ("loss", Float loss);
          ("blackout_ms", Float blackout_ms);
          ("krps", Float (k t.t_achieved_rps));
          ("p99_us", Float t.t_p99_us);
          ("drops", Int d.d_link_dropped);
          ("completed", Int t.t_completed_total);
          ("issued", Int t.t_issued);
          ("freezes", opt (fun n -> Int n) g.g_degrade_freezes);
          ("thaws", opt (fun n -> Int n) g.g_degrade_thaws);
          ("frozen_end", opt (fun b -> Bool b) g.g_degrade_frozen_end);
          ("ok", Bool (Loadgen.Chaos.ok v));
        ])
  in
  Report.Json.to_file "BENCH_fault.json"
    Report.Json.(
      Obj
        [
          ("section", String "fault");
          ("loss_curve", List (List.map cell_json loss_curve));
          ("blackout_curve", List (List.map cell_json blackout_curve));
          ("recovery_comparison", List comparison);
          ("sack_dominates", Bool !dominated);
        ]);
  pf "  wrote BENCH_fault.json\n"

(* ------------------------------------------------------------------ *)
(* Fleet: heterogeneous multi-tenant headline experiment.              *)
(* ------------------------------------------------------------------ *)

(* The mixed fleet where no global static batching mode serves every
   tenant: a bare-metal tenant pushing big SETs at a rate where Nagle
   amortization is required, sharing the server with a VM-priced
   tenant whose small requests are exactly what Nagle+delayed-ack
   punishes.  Per-connection dynamic toggling should settle each
   tenant's connection on its own best mode. *)
let fleet_scenario =
  "fleet seed=42 warmup_ms=100 duration_ms=400 scope=per_conn batching=off\n\
   tenant name=bare conns=1 rate_rps=70000 mix=set_only cpu_mult=1 slo_us=500 \
   batching=dynamic epsilon=0.02\n\
   tenant name=vm conns=1 rate_rps=15000 mix=small cpu_mult=4 slo_us=2000 \
   batching=dynamic epsilon=0.02\n"

let fleet () =
  hr "Fleet — heterogeneous tenants, per-connection batching control";
  let spec =
    match Scenario.Spec.of_string fleet_scenario with
    | Ok s -> s
    | Error msg -> failwith msg
  in
  pf "%s\n" (String.trim (Scenario.Spec.to_string spec));
  let c =
    Scenario.Exec.compare_static ~tol:0.10
      ~map:(fun f l -> Par.Pool.map ~domains:!domains f l)
      spec
  in
  let show label (r : Loadgen.Fleet.result) =
    pf "\n%s:\n" label;
    List.iter
      (fun (t : Loadgen.Fleet.tenant_result) ->
        pf "  %-6s %6.1f kRPS  mean %8.1f us  p99 %8.1f us  under-slo %5.1f%%\n"
          t.t_name (k t.t_achieved_rps) t.t_mean_us t.t_p99_us
          (100.0 *. t.t_under_slo))
      r.tenants;
    pf "  server app %.2f irq %.2f | goodput max/min %s\n" r.server_app_util
      r.server_irq_util
      (match r.goodput_max_min_ratio with
      | Some v -> Printf.sprintf "%.3f" v
      | None -> "-")
  in
  show "scenario as written (per-conn dynamic)" c.candidate;
  show "global static on" c.static_on;
  show "global static off" c.static_off;
  pf "\nverdicts (tol %.0f%%):\n" (100.0 *. c.tol);
  List.iter
    (fun (v : Scenario.Exec.tenant_verdict) ->
      pf "  %-6s dynamic %8.1f us | on %8.1f off %9.1f | best %8.1f | %s\n"
        v.v_name v.v_candidate_us v.v_on_us v.v_off_us v.v_best_us
        (if v.v_candidate_fits then "fits" else "MISSES"))
    c.verdicts;
  pf "no global static fits all tenants: %b\n" c.no_global_static_fits;
  pf "per-conn dynamic fits all tenants: %b\n" c.candidate_fits_all;
  let mode_label = function
    | E2e.Toggler.Batch_on -> "on"
    | E2e.Toggler.Batch_off -> "off"
  in
  let tenant_json (t : Loadgen.Fleet.tenant_result) =
    Report.Json.(
      Obj
        [
          ("name", String t.t_name);
          ("offered_rps", Float t.t_offered_rps);
          ("achieved_rps", Float t.t_achieved_rps);
          ("mean_us", Float t.t_mean_us);
          ("p50_us", Float t.t_p50_us);
          ("p99_us", Float t.t_p99_us);
          ("under_slo", Float t.t_under_slo);
          ("estimated_us", opt (fun v -> Float v) t.t_estimated_us);
        ])
  in
  let result_json (r : Loadgen.Fleet.result) =
    Report.Json.(
      Obj
        [
          ("tenants", List (List.map tenant_json r.tenants));
          ("fleet_achieved_rps", Float r.fleet_achieved_rps);
          ("fleet_mean_us", Float r.fleet_mean_us);
          ("fleet_p99_us", Float r.fleet_p99_us);
          ( "goodput_max_min_ratio",
            opt (fun v -> Float v) r.goodput_max_min_ratio );
          ("goodput_jain", opt (fun v -> Float v) r.goodput_jain);
          ("server_app_util", Float r.server_app_util);
          ("server_irq_util", Float r.server_irq_util);
          ( "final_modes",
            Obj
              (List.map (fun (gid, m) -> (gid, String (mode_label m))) (Loadgen.Fleet.final_modes r))
          );
        ])
  in
  Report.Json.to_file "BENCH_fleet.json"
    Report.Json.(
      Obj
        [
          ("section", String "fleet");
          ("scenario", String (Scenario.Spec.to_string spec));
          ("tol", Float c.tol);
          ("candidate", result_json c.candidate);
          ("static_on", result_json c.static_on);
          ("static_off", result_json c.static_off);
          ( "verdicts",
            List
              (List.map
                 (fun (v : Scenario.Exec.tenant_verdict) ->
                   Obj
                     [
                       ("name", String v.v_name);
                       ("candidate_us", Float v.v_candidate_us);
                       ("static_on_us", Float v.v_on_us);
                       ("static_off_us", Float v.v_off_us);
                       ("best_us", Float v.v_best_us);
                       ("candidate_fits", Bool v.v_candidate_fits);
                     ])
                 c.verdicts) );
          ("no_global_static_fits", Bool c.no_global_static_fits);
          ("candidate_fits_all", Bool c.candidate_fits_all);
        ]);
  pf "  wrote BENCH_fleet.json\n"

(* ------------------------------------------------------------------ *)
(* Churn: time-varying load and connection lifecycle.                  *)
(* ------------------------------------------------------------------ *)

(* Re-convergence under disturbance, measured two ways.  First the
   chaos churn cells: a flash-crowd envelope (10x square wave) and a
   scripted churn storm (mass connect/disconnect), each asserting that
   estimates and modes re-enter their steady band within the cell's
   bound.  Then the headline mixed fleet re-run with the load moving
   under it — a flash-crowd envelope on the VM tenant and scripted
   churn on the bare tenant — where per-connection dynamic control
   must still fit every tenant's best static latency within tolerance
   even though the population and the offered rate change mid-run. *)
let churn_scenario =
  "fleet seed=42 warmup_ms=100 duration_ms=400 scope=per_conn batching=off\n\
   tenant name=bare conns=1 rate_rps=70000 mix=set_only cpu_mult=1 slo_us=500 \
   batching=dynamic epsilon=0.02 churn_script=280:+1,380:-1 churn_max=8\n\
   tenant name=vm rate_rps=15000 mix=small cpu_mult=4 slo_us=2000 \
   batching=dynamic epsilon=0.02 envelope=square env_period_ms=200 \
   env_duty=0.25 env_high=1.5\n"

(* The churn epochs land in the envelope's quiet phase deliberately: a
   spawn arriving at the exact onset of a flash burst (both at 200 ms,
   say) joins a briefly saturated server during TCP slow-start, and the
   extra queueing that one coincidence costs pushes the bare tenant
   past a 10% fit tolerance.  That adversarial alignment is what the
   chaos flash/storm cells stress with explicit settle bounds; this
   section benches the steady claim — under staggered, realistic
   disturbance the per-conn dynamic fleet still fits every tenant. *)

let churn () =
  hr "Churn — flash crowds, connection lifecycle, re-convergence";
  (* chaos cells: bounded re-convergence, with the bound printed *)
  let verdicts = Loadgen.Chaos.run_grid ~domains:!domains (Loadgen.Chaos.churn_grid ()) in
  let bound (v : Loadgen.Chaos.verdict) = Option.get v.cell.owed.settle_us in
  let worst sel (r : Loadgen.Fleet.result) =
    match r.observability with
    | None -> None
    | Some o ->
      List.fold_left
        (fun acc (g : Loadgen.Observe.settle_report) ->
          match (sel g, acc) with
          | None, acc -> acc
          | Some v, None -> Some v
          | Some v, Some w -> Some (Float.max v w))
        None o.Loadgen.Observe.settling
  in
  pf "%-14s %12s %12s %10s  %s\n" "cell" "est-settle" "mode-settle" "bound"
    "verdict";
  List.iter
    (fun (v : Loadgen.Chaos.verdict) ->
      let s = function
        | Some us -> Printf.sprintf "%10.0fus" us
        | None -> "         -"
      in
      pf "%-14s %s %s %8.0fus  %s\n" v.cell.label
        (s (worst (fun g -> g.Loadgen.Observe.g_settle_us) v.result))
        (s (worst (fun g -> g.Loadgen.Observe.g_mode_settle_us) v.result))
        (bound v)
        (if Loadgen.Chaos.ok v then "ok" else String.concat "; " v.failures))
    verdicts;
  let reconverges = List.for_all Loadgen.Chaos.ok verdicts in
  pf "per-conn control re-converges within bounds: %b\n" reconverges;
  (* the mixed fleet, now with the load moving under it *)
  let spec =
    match Scenario.Spec.of_string churn_scenario with
    | Ok s -> s
    | Error msg -> failwith msg
  in
  pf "\n%s\n" (String.trim (Scenario.Spec.to_string spec));
  let c =
    Scenario.Exec.compare_static ~tol:0.10
      ~map:(fun f l -> Par.Pool.map ~domains:!domains f l)
      spec
  in
  List.iter
    (fun (t : Loadgen.Fleet.tenant_result) ->
      pf "  %-6s %6.1f kRPS  mean %8.1f us  p99 %8.1f us  opened %d closed %d\n"
        t.t_name (k t.t_achieved_rps) t.t_mean_us t.t_p99_us t.t_conns_opened
        t.t_conns_closed)
    c.candidate.tenants;
  pf "verdicts (tol %.0f%%):\n" (100.0 *. c.tol);
  List.iter
    (fun (v : Scenario.Exec.tenant_verdict) ->
      pf "  %-6s dynamic %8.1f us | on %8.1f off %9.1f | best %8.1f | %s\n"
        v.v_name v.v_candidate_us v.v_on_us v.v_off_us v.v_best_us
        (if v.v_candidate_fits then "fits" else "MISSES"))
    c.verdicts;
  pf "no global static fits all tenants: %b\n" c.no_global_static_fits;
  pf "per-conn dynamic fits all tenants under churn: %b\n" c.candidate_fits_all;
  let cell_json (v : Loadgen.Chaos.verdict) =
    Report.Json.(
      Obj
        [
          ("cell", String v.cell.label);
          ( "est_settle_worst_us",
            opt (fun x -> Float x) (worst (fun g -> g.Loadgen.Observe.g_settle_us) v.result) );
          ( "mode_settle_worst_us",
            opt
              (fun x -> Float x)
              (worst (fun g -> g.Loadgen.Observe.g_mode_settle_us) v.result) );
          ("bound_us", Float (bound v));
          ("ok", Bool (Loadgen.Chaos.ok v));
          ("failures", List (List.map (fun m -> String m) v.failures));
        ])
  in
  Report.Json.to_file "BENCH_churn.json"
    Report.Json.(
      Obj
        [
          ("section", String "churn");
          ("cells", List (List.map cell_json verdicts));
          ("per_conn_reconverges", Bool reconverges);
          ("scenario", String (Scenario.Spec.to_string spec));
          ("tol", Float c.tol);
          ( "verdicts",
            List
              (List.map
                 (fun (v : Scenario.Exec.tenant_verdict) ->
                   Obj
                     [
                       ("name", String v.v_name);
                       ("candidate_us", Float v.v_candidate_us);
                       ("static_on_us", Float v.v_on_us);
                       ("static_off_us", Float v.v_off_us);
                       ("best_us", Float v.v_best_us);
                       ("candidate_fits", Bool v.v_candidate_fits);
                     ])
                 c.verdicts) );
          ("no_global_static_fits", Bool c.no_global_static_fits);
          ("candidate_fits_all", Bool c.candidate_fits_all);
        ]);
  pf "  wrote BENCH_churn.json\n"

(* ------------------------------------------------------------------ *)
(* Scale: the sharded serving tier at 100k connections.                *)
(* ------------------------------------------------------------------ *)

(* Three claims, one section.  (1) A 100k-connection, 4-shard fleet
   completes with exact per-shard accounting closure — issued =
   completed + outstanding on every shard, over every connection ever
   steered there.  (2) Per-connection dynamic batching still converges
   per shard: the mixed fleet from the headline bench, sharded 4 ways,
   settles each connection's mode on every shard.  (3) Policy: under a
   skewed tenant whose connections consistent-hashing clumps onto one
   shard, [least_loaded] beats [consistent_hash] on fleet p99.  The
   hot-shard pair also runs twice and across domain counts, asserting
   bit-identical results — the LB and steering are hashes and counters,
   no rng. *)

(* The "whale" tenant is chosen so that FNV-1a consistent hashing lands
   all six of its connections on shard 0 (deterministic, seedless);
   [least_loaded] spreads them 2/2/1/1 by construction. *)
let hot_shard_scenario lb =
  Printf.sprintf
    "fleet seed=42 warmup_ms=50 duration_ms=200 scope=global batching=off\n\
     server cores=4 lb=%s\n\
     tenant name=whale conns=6 rate_rps=70000 mix=set_only slo_us=500\n\
     tenant name=steady conns=24 rate_rps=15000 mix=small cpu_mult=4 slo_us=2000\n"
    lb

let scale_convergence_scenario =
  "fleet seed=42 warmup_ms=100 duration_ms=400 scope=per_conn batching=off\n\
   server cores=4 lb=least_loaded\n\
   tenant name=bare conns=8 rate_rps=70000 mix=set_only cpu_mult=1 slo_us=500 \
   batching=dynamic epsilon=0.02\n\
   tenant name=vm conns=8 rate_rps=15000 mix=small cpu_mult=4 slo_us=2000 \
   batching=dynamic epsilon=0.02\n"

let scale_conns = ref 100_000

let scale () =
  hr "Scale — sharded serving tier, 100k connections, front LB policies";
  let module Fleet = Loadgen.Fleet in
  (* -- 1: the 100k-connection fleet, 4 shards, accounting closure -- *)
  let conns = Stdlib.max 4 !scale_conns in
  let per_tenant = (conns + 3) / 4 in
  let tenants =
    List.init 4 (fun i ->
        {
          (Fleet.default_tenant
             ~name:(Printf.sprintf "t%d" i)
             ~rate_rps:25_000.0)
          with
          Fleet.n_conns = per_tenant;
        })
  in
  let cfg =
    {
      (Fleet.default_config ~tenants) with
      Fleet.cores = 4;
      lb = Shard.Lb.Least_loaded;
      warmup = Sim.Time.ms 20;
      duration = Sim.Time.ms 100;
    }
  in
  (* Construction cost: the same fleet run for the shortest simulated
     time the run API accepts, so the major-heap words it allocates
     (promotions included) are the connections being built — what
     perfbench reports as heap_words_per_conn.  From an empty minor
     heap the count is exact. *)
  Gc.full_major ();
  let _, _, major0 = Gc.counters () in
  ignore (Fleet.run { cfg with Fleet.warmup = Sim.Time.ns 1; duration = Sim.Time.ns 1 });
  let _, _, major1 = Gc.counters () in
  let construction_words = (major1 -. major0) /. float_of_int (4 * per_tenant) in
  let t0 = Unix.gettimeofday () in
  let r = Fleet.run cfg in
  let dt = Unix.gettimeofday () -. t0 in
  let peak_heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6
  in
  pf "100k fleet: %d connections over %d shards (%s), %.1fs wall\n"
    (4 * per_tenant) (List.length r.Fleet.shards)
    (Shard.Lb.policy_to_string cfg.Fleet.lb)
    dt;
  pf "construction: %.1f major-heap words per connection; peak heap %.1f MB\n"
    construction_words peak_heap_mb;
  pf "%-6s %8s %10s %10s %12s %8s\n" "shard" "conns" "issued" "completed"
    "outstanding" "closure";
  (* The oracle: closure per tenant and per shard, and liveness. *)
  let failures = Loadgen.Invariants.(check base) r in
  let closure_ok = failures = [] in
  List.iter
    (fun (s : Fleet.shard_result) ->
      let shard = Printf.sprintf "accounting: shard %d " s.sh_index in
      let ok = not (List.exists (String.starts_with ~prefix:shard) failures) in
      pf "s%-5d %8d %10d %10d %12d %8s\n" s.sh_index s.sh_conns s.sh_issued
        s.sh_completed_total s.sh_outstanding_end
        (if ok then "exact" else "BROKEN"))
    r.Fleet.shards;
  pf "per-shard accounting closure: %b\n" closure_ok;
  (* -- 2: per-conn dynamic batching converging per shard -- *)
  let conv_spec =
    match Scenario.Spec.of_string scale_convergence_scenario with
    | Ok s -> s
    | Error msg -> failwith msg
  in
  let conv = Scenario.Exec.run conv_spec in
  pf "\nper-conn dynamic over 4 shards:\n";
  pf "%-6s %8s %10s %8s %8s  %s\n" "shard" "conns" "achieved" "mean" "p99"
    "modes settled";
  let shard_of_gid gid =
    match Sim.Trace.shard_of_id gid with Some s -> s | None -> -1
  in
  let conv_ok = ref true in
  List.iter
    (fun (s : Fleet.shard_result) ->
      let settled =
        List.length
          (List.filter
             (fun (gid, _) -> shard_of_gid gid = s.sh_index)
             (Fleet.final_modes conv))
      in
      (* every shard hosts 2 bare + 2 vm conns; all four must have
         settled on a final mode for "converged per shard" to hold *)
      if settled < 4 then conv_ok := false;
      pf "s%-5d %8d %10.0f %6.1fus %6.1fus  %d\n" s.sh_index s.sh_conns
        s.sh_achieved_rps s.sh_mean_us s.sh_p99_us settled)
    conv.Fleet.shards;
  pf "dynamic control converges on every shard: %b\n" !conv_ok;
  (* -- 3: hot shard, least_loaded vs consistent_hash, determinism -- *)
  let run_hot lb =
    let spec =
      match Scenario.Spec.of_string (hot_shard_scenario lb) with
      | Ok s -> s
      | Error msg -> failwith msg
    in
    Scenario.Exec.run spec
  in
  let fingerprint (r : Fleet.result) =
    Printf.sprintf "%.6f/%.6f/%s" r.Fleet.fleet_p99_us r.Fleet.fleet_mean_us
      (String.concat ","
         (List.map
            (fun (s : Fleet.shard_result) ->
              Printf.sprintf "%d:%d:%d" s.sh_index s.sh_conns s.sh_issued)
            r.Fleet.shards))
  in
  let jobs = [ "consistent_hash"; "least_loaded"; "consistent_hash"; "least_loaded" ] in
  let pair domains = Par.Pool.map ~domains run_hot jobs in
  let d1 = pair 1 in
  let d2 = pair (Stdlib.max 2 !domains) in
  let deterministic =
    List.for_all2 (fun a b -> fingerprint a = fingerprint b) d1 d2
    && fingerprint (List.nth d1 0) = fingerprint (List.nth d1 2)
    && fingerprint (List.nth d1 1) = fingerprint (List.nth d1 3)
  in
  let ch = List.nth d1 0 and ll = List.nth d1 1 in
  pf "\nhot-shard scenario (whale tenant, 6 conns clumped by hashing):\n";
  let show label (r : Fleet.result) =
    pf "  %-16s fleet p99 %8.1fus mean %7.1fus | shard conns: %s\n" label
      r.Fleet.fleet_p99_us r.Fleet.fleet_mean_us
      (String.concat " "
         (List.map
            (fun (s : Fleet.shard_result) ->
              Printf.sprintf "s%d=%d" s.sh_index s.sh_conns)
            r.Fleet.shards))
  in
  show "consistent_hash" ch;
  show "least_loaded" ll;
  let ll_wins = ll.Fleet.fleet_p99_us < ch.Fleet.fleet_p99_us in
  pf "least_loaded beats consistent_hash on p99: %b\n" ll_wins;
  pf "bit-identical across repeats and domains 1 vs %d: %b\n"
    (Stdlib.max 2 !domains) deterministic;
  let shard_json (s : Fleet.shard_result) =
    Report.Json.(
      Obj
        [
          ("index", Int s.sh_index);
          ("conns", Int s.sh_conns);
          ("issued", Int s.sh_issued);
          ("completed_total", Int s.sh_completed_total);
          ("outstanding_end", Int s.sh_outstanding_end);
          ("achieved_rps", Float s.sh_achieved_rps);
          ("mean_us", Float s.sh_mean_us);
          ("p99_us", Float s.sh_p99_us);
          ("app_util", Float s.sh_app_util);
          ("irq_util", Float s.sh_irq_util);
        ])
  in
  Report.Json.to_file "BENCH_scale.json"
    Report.Json.(
      Obj
        [
          ("section", String "scale");
          ("connections", Int (4 * per_tenant));
          ("shards", Int (List.length r.Fleet.shards));
          ("wall_s", Float dt);
          ("construction_words_per_conn", Float construction_words);
          ("peak_heap_mb", Float peak_heap_mb);
          ("closure_pass", Bool closure_ok);
          ("headline_shards", List (List.map shard_json r.Fleet.shards));
          ("convergence_pass", Bool !conv_ok);
          ("convergence_shards", List (List.map shard_json conv.Fleet.shards));
          ("hot_shard_consistent_hash_p99_us", Float ch.Fleet.fleet_p99_us);
          ("hot_shard_least_loaded_p99_us", Float ll.Fleet.fleet_p99_us);
          ("least_loaded_wins", Bool ll_wins);
          ("deterministic", Bool deterministic);
        ]);
  pf "  wrote BENCH_scale.json\n";
  if not (closure_ok && !conv_ok && ll_wins && deterministic) then exit 1

(* Wall time per request against connection count: 4 tenants of 64 B
   SETs at 10 req/s per connection on 4 shards behind least_loaded,
   at 100, 1,000 and 10,000 connections.  Each size simulates about
   12k requests, so the simulated work per request is the same and
   only the connection count changes.  A size's run time is its full
   run less a run of the shortest simulated time (the set-up), per
   completed request; the median and quartiles of [connscale_repeats]
   repeats are reported.  Wall-clock, so not part of [make check]. *)
let connscale_sizes = [ 100; 1_000; 10_000 ]
let connscale_repeats = 5

let connscale () =
  hr "Connection scale — wall time per request vs connection count";
  let module Fleet = Loadgen.Fleet in
  let config conns =
    let per_tenant = conns / 4 in
    let tenants =
      List.init 4 (fun i ->
          {
            (Fleet.default_tenant ~name:(Printf.sprintf "t%d" i)
               ~rate_rps:(10.0 *. float_of_int per_tenant))
            with
            Fleet.n_conns = per_tenant;
            workload = Loadgen.Workload.small_requests;
          })
    in
    {
      (Fleet.default_config ~tenants) with
      Fleet.seed = 42;
      cores = 4;
      lb = Shard.Lb.Least_loaded;
      warmup = Sim.Time.ms 20;
      duration = Sim.Time.ms (1_200_000 / conns);
    }
  in
  let timed cfg =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let r = Fleet.run cfg in
    (Unix.gettimeofday () -. t0, r)
  in
  let quartiles xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    let at q = a.(int_of_float (Float.round (q *. float_of_int (Array.length a - 1)))) in
    (at 0.25, at 0.5, at 0.75)
  in
  pf "%8s %9s %10s %10s %10s %10s\n" "conns" "requests" "setup ms" "us/req q1" "median"
    "q3";
  let rows =
    List.map
      (fun conns ->
        let cfg = config conns in
        let probe = { cfg with Fleet.warmup = Sim.Time.ns 1; duration = Sim.Time.ns 1 } in
        let runs =
          List.init connscale_repeats (fun _ ->
              let setup, _ = timed probe in
              let full, r = timed cfg in
              let requests =
                List.fold_left (fun n (t : Fleet.tenant_result) -> n + t.t_completed_total) 0
                  r.Fleet.tenants
              in
              (setup, (full -. setup) /. float_of_int requests *. 1e6, requests))
        in
        let _, _, requests = List.hd runs in
        if List.exists (fun (_, _, n) -> n <> requests) runs then
          failwith "connscale: repeats completed different request counts";
        let _, setup_med, _ = quartiles (List.map (fun (s, _, _) -> s) runs) in
        let q1, med, q3 = quartiles (List.map (fun (_, us, _) -> us) runs) in
        pf "%8d %9d %10.1f %10.2f %10.2f %10.2f\n" conns requests (setup_med *. 1e3) q1 med q3;
        Report.Json.(
          Obj
            [
              ("conns", Int conns);
              ("requests", Int requests);
              ("setup_ms_median", Float (setup_med *. 1e3));
              ("wall_us_per_req_q1", Float q1);
              ("wall_us_per_req_median", Float med);
              ("wall_us_per_req_q3", Float q3);
            ]))
      connscale_sizes
  in
  Report.Json.to_file "BENCH_connscale.json"
    Report.Json.(
      Obj
        [
          ("section", String "connscale");
          ("tenants", Int 4);
          ("shards", Int 4);
          ("req_per_s_per_conn", Int 10);
          ("repeats", Int connscale_repeats);
          ("sizes", List rows);
        ]);
  pf "  wrote BENCH_connscale.json\n"

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4a", fig4a);
    ("fig4b", fig4b);
    ("small", small);
    ("dynamic", dynamic);
    ("ablate", ablate);
    ("micro", micro);
    ("alloc", alloc);
    ("fault", fault);
    ("fleet", fleet);
    ("churn", churn);
    ("scale", scale);
    ("connscale", connscale);
  ]

let () =
  let rec split_flags acc = function
    | [] -> List.rev acc
    | "--domains" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        domains := n;
        split_flags acc rest
      | Some _ | None ->
        prerr_endline "--domains expects a positive integer";
        exit 1)
    | [ "--domains" ] ->
      prerr_endline "--domains expects a positive integer";
      exit 1
    | arg :: rest -> split_flags (arg :: acc) rest
  in
  let requested =
    match split_flags [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst sections
    | args -> args
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        pf "unknown section %S (expected: %s)\n" name
          (String.concat " " (List.map fst sections));
        exit 1)
    requested
