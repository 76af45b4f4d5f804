(* Time-varying workloads and connection churn: arrival-process
   validation, envelope factor/edge math, gap-trace replay, the
   estimator cold-start path, settling-time judgement on synthetic
   series, churn fleet lifecycle/determinism, and the chaos churn
   cells' ablation contract (inheritance off must fail the
   re-convergence invariants). *)

module Arrival = Loadgen.Arrival
module Fleet = Loadgen.Fleet
module Observe = Loadgen.Observe
module Chaos = Loadgen.Chaos

let us = Sim.Time.us
let ms = Sim.Time.ms

(* {1 Arrival processes} *)

let expect_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

let test_arrival_validation () =
  expect_invalid "uniform rate 0" (fun () -> Arrival.uniform ~rate_rps:0.0);
  expect_invalid "uniform rate -1" (fun () -> Arrival.uniform ~rate_rps:(-1.0));
  expect_invalid "uniform rate nan" (fun () -> Arrival.uniform ~rate_rps:Float.nan);
  expect_invalid "uniform rate inf" (fun () ->
      Arrival.uniform ~rate_rps:Float.infinity);
  let rng = Sim.Rng.create ~seed:1 in
  expect_invalid "bursty rate nan" (fun () ->
      Arrival.bursty ~rng ~rate_rps:Float.nan ~burst:4);
  expect_invalid "bursty burst 0" (fun () ->
      Arrival.bursty ~rng ~rate_rps:1000.0 ~burst:0);
  expect_invalid "poisson rate inf" (fun () ->
      Arrival.poisson ~rng ~rate_rps:Float.infinity);
  expect_invalid "replay empty" (fun () -> Arrival.replay ~gaps_ns:[||]);
  expect_invalid "replay negative gap" (fun () ->
      Arrival.replay ~gaps_ns:[| 10; -1 |]);
  expect_invalid "replay all-zero" (fun () -> Arrival.replay ~gaps_ns:[| 0; 0 |]);
  (* malformed envelopes are rejected at modulate time *)
  let base = Arrival.uniform ~rate_rps:1000.0 in
  expect_invalid "steps empty" (fun () -> Arrival.modulate base (Arrival.Steps []));
  expect_invalid "steps unsorted" (fun () ->
      Arrival.modulate base (Arrival.Steps [ (10.0, 2.0); (5.0, 3.0) ]));
  expect_invalid "steps zero factor" (fun () ->
      Arrival.modulate base (Arrival.Steps [ (10.0, 0.0) ]));
  expect_invalid "square duty 1" (fun () ->
      Arrival.modulate base
        (Arrival.Square { period_us = 100.0; duty = 1.0; high = 4.0 }));
  expect_invalid "square period 0" (fun () ->
      Arrival.modulate base
        (Arrival.Square { period_us = 0.0; duty = 0.5; high = 4.0 }));
  expect_invalid "ramp from 0" (fun () ->
      Arrival.modulate base
        (Arrival.Ramp { period_us = 100.0; from_f = 0.0; to_f = 2.0 }))

let test_uniform_gap () =
  (* 1e6 rps = exactly 1000 ns between requests, whatever the clock. *)
  let a = Arrival.uniform ~rate_rps:1e6 in
  Alcotest.(check int) "gap" 1000 (Arrival.next_gap a ~now:0);
  Alcotest.(check int) "gap again" 1000 (Arrival.next_gap a ~now:(us 500))

let test_bursty_rate_preserved () =
  (* Bursts of [b] back-to-back requests: within a burst the gap is 0,
     and the long-run mean gap stays 1/rate. *)
  let rng = Sim.Rng.create ~seed:3 in
  let a = Arrival.bursty ~rng ~rate_rps:10_000.0 ~burst:4 in
  Alcotest.(check (float 1e-9)) "reported rate" 10_000.0 (Arrival.rate a);
  let n = 40_000 in
  let total = ref 0 and zeros = ref 0 in
  for _ = 1 to n do
    let g = Arrival.next_gap a ~now:0 in
    total := !total + g;
    if g = 0 then incr zeros
  done;
  (* 3 of every 4 draws are intra-burst zeros *)
  Alcotest.(check bool) "zeros ~ 3/4" true
    (abs (!zeros - (3 * n / 4)) < n / 50);
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool) "mean gap ~ 1/rate" true
    (Float.abs (mean -. 100_000.0) /. 100_000.0 < 0.05)

let test_envelope_factor () =
  let sq = Arrival.Square { period_us = 100.0; duty = 0.25; high = 10.0 } in
  Alcotest.(check (float 1e-9)) "square high phase" 10.0
    (Arrival.factor sq ~at_us:10.0);
  Alcotest.(check (float 1e-9)) "square low phase" 1.0
    (Arrival.factor sq ~at_us:30.0);
  Alcotest.(check (float 1e-9)) "square wraps" 10.0
    (Arrival.factor sq ~at_us:110.0);
  let steps = Arrival.Steps [ (50.0, 2.0); (150.0, 0.5) ] in
  Alcotest.(check (float 1e-9)) "before first step" 1.0
    (Arrival.factor steps ~at_us:10.0);
  Alcotest.(check (float 1e-9)) "after first step" 2.0
    (Arrival.factor steps ~at_us:60.0);
  Alcotest.(check (float 1e-9)) "after second step" 0.5
    (Arrival.factor steps ~at_us:151.0);
  let ramp = Arrival.Ramp { period_us = 100.0; from_f = 1.0; to_f = 3.0 } in
  Alcotest.(check (float 1e-9)) "ramp start" 1.0 (Arrival.factor ramp ~at_us:0.0);
  Alcotest.(check (float 1e-9)) "ramp midpoint" 2.0
    (Arrival.factor ramp ~at_us:50.0);
  Alcotest.(check (float 1e-9)) "ramp wraps to start" 1.0
    (Arrival.factor ramp ~at_us:100.0)

let test_envelope_edges () =
  let sq = Arrival.Square { period_us = 100.0; duty = 0.25; high = 10.0 } in
  Alcotest.(check (list (float 1e-9))) "square edges"
    [ 25.0; 100.0; 125.0; 200.0; 225.0 ]
    (Arrival.edges sq ~until_us:240.0);
  (* a square at factor 1.0 modulates nothing *)
  let flat_sq = Arrival.Square { period_us = 100.0; duty = 0.25; high = 1.0 } in
  Alcotest.(check (list (float 1e-9))) "degenerate square" []
    (Arrival.edges flat_sq ~until_us:240.0);
  let ramp = Arrival.Ramp { period_us = 80.0; from_f = 1.0; to_f = 2.0 } in
  Alcotest.(check (list (float 1e-9))) "ramp edges at period wraps"
    [ 80.0; 160.0 ]
    (Arrival.edges ramp ~until_us:200.0);
  let flat_ramp = Arrival.Ramp { period_us = 80.0; from_f = 2.0; to_f = 2.0 } in
  Alcotest.(check (list (float 1e-9))) "degenerate ramp" []
    (Arrival.edges flat_ramp ~until_us:200.0);
  Alcotest.(check (list (float 1e-9))) "step edges drop t=0"
    [ 40.0 ]
    (Arrival.edges (Arrival.Steps [ (0.0, 2.0); (40.0, 1.0) ]) ~until_us:100.0)

let test_envelope_modulates_gap () =
  (* Gaps divide by the factor at draw time: a 10x flash crowd cuts a
     uniform 1000 ns gap to 100 ns while the high phase lasts. *)
  let env = Arrival.Square { period_us = 100.0; duty = 0.25; high = 10.0 } in
  let a = Arrival.modulate (Arrival.uniform ~rate_rps:1e6) env in
  Alcotest.(check int) "high phase" 100 (Arrival.next_gap a ~now:(us 10));
  Alcotest.(check int) "low phase" 1000 (Arrival.next_gap a ~now:(us 30));
  Alcotest.(check bool) "envelope exposed" true (Arrival.envelope a = env)

let test_replay_cycles () =
  let a = Arrival.replay ~gaps_ns:[| 1000; 2000; 3000 |] in
  Alcotest.(check (float 1e-6)) "rate is long-run mean" 5e5 (Arrival.rate a);
  let got = List.init 7 (fun _ -> Arrival.next_gap a ~now:0) in
  Alcotest.(check (list int)) "verbatim then cycling"
    [ 1000; 2000; 3000; 1000; 2000; 3000; 1000 ]
    got

(* {1 Gap-trace loader} *)

let contains msg sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
  in
  go 0

let test_gap_loader () =
  (match Loadgen.Trace.gaps_of_string "10\n# comment\n\n2.5\n" with
  | Ok gaps ->
    Alcotest.(check (list int)) "microseconds to ns, comments skipped"
      [ 10_000; 2_500 ] (Array.to_list gaps)
  | Error e -> Alcotest.failf "unexpected error: %s" e);
  (match Loadgen.Trace.gaps_of_string "10\n# c\n\nbogus\n" with
  | Error msg ->
    Alcotest.(check bool) "bad line is line-numbered" true (contains msg "line 4")
  | Ok _ -> Alcotest.fail "expected an error for a malformed gap line");
  (match Loadgen.Trace.gaps_of_string "10\n-3\n" with
  | Error msg ->
    Alcotest.(check bool) "negative gap line-numbered" true (contains msg "line 2")
  | Ok _ -> Alcotest.fail "expected an error for a negative gap");
  (* print/parse round-trip *)
  let gaps = [| 0; 1000; 123_456 |] in
  match Loadgen.Trace.gaps_of_string (Loadgen.Trace.gaps_to_string gaps) with
  | Ok gaps' ->
    Alcotest.(check (list int)) "round-trips" (Array.to_list gaps)
      (Array.to_list gaps')
  | Error e -> Alcotest.failf "round-trip failed: %s" e

(* {1 Estimator cold start} *)

(* A connection spawned mid-run is marked [Cold_start]: it publishes
   nothing while cold ([peek_estimate] = [None], so a group aggregate
   never sees its slow-start window) and the first [estimate] discards
   the untrustworthy window instead of publishing it. *)
let test_estimator_cold_start () =
  let e = E2e.Estimator.create ~at:0 in
  Alcotest.(check bool) "born warm" false (E2e.Estimator.is_cold e);
  E2e.Estimator.set_cold_start e;
  Alcotest.(check bool) "marked cold" true (E2e.Estimator.is_cold e);
  (* queue activity a warm estimator would turn into a latency window *)
  E2e.Estimator.track_unacked e ~at:0 1;
  E2e.Estimator.track_unacked e ~at:(us 10) (-1);
  Alcotest.(check bool) "cold peek reports nothing" true
    (E2e.Estimator.peek_estimate e ~at:(us 20) = None);
  Alcotest.(check bool) "first estimate discards the cold window" true
    (E2e.Estimator.estimate e ~at:(us 20) = None);
  Alcotest.(check bool) "warm after the discard" false (E2e.Estimator.is_cold e);
  (* from here on it behaves like any warm estimator *)
  E2e.Estimator.track_unacked e ~at:(us 30) 1;
  E2e.Estimator.track_unacked e ~at:(us 40) (-1);
  match E2e.Estimator.peek_estimate e ~at:(us 50) with
  | Some est -> Alcotest.(check bool) "warm window has latency" true
                  (est.E2e.Estimator.latency_ns <> None)
  | None -> Alcotest.fail "expected a warm estimate"

(* The same warm estimator with identical activity DOES publish — the
   cold path above really is what suppresses the slow-start window. *)
let test_warm_estimator_publishes () =
  let e = E2e.Estimator.create ~at:0 in
  E2e.Estimator.track_unacked e ~at:0 1;
  E2e.Estimator.track_unacked e ~at:(us 10) (-1);
  match E2e.Estimator.peek_estimate e ~at:(us 20) with
  | Some est ->
    Alcotest.(check bool) "latency present" true
      (est.E2e.Estimator.latency_ns <> None)
  | None -> Alcotest.fail "expected an estimate"

(* {1 Settling judgement on synthetic series} *)

let series vals = List.mapi (fun i v -> (float_of_int (i + 1) *. 1000.0, v)) vals

let test_judge_settle_immediate () =
  (* Already steady: settles at the first interior sample. *)
  let s = series [ 100.; 100.; 100.; 100.; 100.; 100.; 100.; 100.; 100. ] in
  match Observe.judge_settle s ~edge_us:0.0 ~end_us:10_000.0 ~kind:`Estimate with
  | Some steady, Some settle ->
    Alcotest.(check (float 1e-9)) "steady" 100.0 steady;
    Alcotest.(check (float 1e-9)) "settle at first sample" 1000.0 settle
  | _ -> Alcotest.fail "expected a judged segment"

let test_judge_settle_step () =
  (* 500 for 4 samples then 100: the median-of-5 filter flips at the
     5th sample (t = 5 ms), entry into the ±max(25%, 60 µs) band holds
     from there. *)
  let s =
    series [ 500.; 500.; 500.; 500.; 100.; 100.; 100.; 100.; 100.; 100.; 100.; 100. ]
  in
  match Observe.judge_settle s ~edge_us:0.0 ~end_us:13_000.0 ~kind:`Estimate with
  | Some steady, Some settle ->
    Alcotest.(check (float 1e-9)) "steady is the new regime" 100.0 steady;
    Alcotest.(check (float 1e-9)) "settles when the filter flips" 5000.0 settle
  | _ -> Alcotest.fail "expected a judged segment"

let test_judge_settle_never () =
  (* A regime shift too close to the segment end: the filtered series
     leaves the band on its last sample, so it never holds it (steady
     is still reported). *)
  let s =
    series [ 2000.; 2000.; 2000.; 2000.; 2000.; 2000.; 2000.; 2000.; 100.; 100. ]
  in
  (match Observe.judge_settle s ~edge_us:0.0 ~end_us:11_000.0 ~kind:`Estimate with
  | Some _, None -> ()
  | Some _, Some _ -> Alcotest.fail "late regime shift must not settle"
  | None, _ -> Alcotest.fail "expected a steady value");
  (* too few interior samples: nothing to judge *)
  match
    Observe.judge_settle (series [ 1.; 2.; 3. ]) ~edge_us:0.0 ~end_us:4_000.0
      ~kind:`Estimate
  with
  | None, None -> ()
  | _ -> Alcotest.fail "a 3-sample segment must not be judged"

let test_judge_settle_mode_band () =
  (* Mode fractions judge against a flat ±0.34 band: a population that
     flips from all-on to all-off settles once the filtered fraction
     drops inside it. *)
  let s = series [ 1.0; 1.0; 0.5; 0.0; 0.0; 0.0; 0.0; 0.0; 0.0 ] in
  match Observe.judge_settle s ~edge_us:0.0 ~end_us:10_000.0 ~kind:`Mode with
  | Some steady, Some settle ->
    Alcotest.(check (float 1e-9)) "steady mode" 0.0 steady;
    Alcotest.(check (float 1e-9)) "settle" 4000.0 settle
  | _ -> Alcotest.fail "expected a judged mode segment"

let test_judge_settle_excludes_boundaries () =
  (* Samples at exactly the edge and the segment end belong to the
     neighbouring regimes (same-timestamp events run before the
     observation tick) and must not poison the judgement. *)
  let core = series [ 100.; 100.; 100.; 100.; 100.; 100.; 100.; 100.; 100. ] in
  let s = ((0.0, 9_999.0) :: core) @ [ (10_000.0, 9_999.0) ] in
  match Observe.judge_settle s ~edge_us:0.0 ~end_us:10_000.0 ~kind:`Estimate with
  | Some steady, Some settle ->
    Alcotest.(check (float 1e-9)) "boundary samples ignored" 100.0 steady;
    Alcotest.(check (float 1e-9)) "settle unchanged" 1000.0 settle
  | _ -> Alcotest.fail "expected a judged segment"

(* {1 Churn fleet lifecycle} *)

let churn_fleet_config () =
  let t =
    { (Fleet.default_tenant ~name:"churny" ~rate_rps:20_000.0) with
      Fleet.n_conns = 2;
      batching = Loadgen.Control.(Dynamic default_dynamic);
      churn =
        Some
          { Fleet.no_churn with
            max_conns = 8;
            script = [ (ms 10, 2); (ms 20, -2) ] };
    }
  in
  { (Fleet.default_config ~tenants:[ t ]) with
    Fleet.seed = 7;
    warmup = ms 5;
    duration = ms 25;
    scope = Fleet.Per_tenant;
    observe = Some Observe.default_config;
  }

let test_churn_fleet_lifecycle () =
  let r = Fleet.run (churn_fleet_config ()) in
  let t = List.hd r.Fleet.tenants in
  Alcotest.(check int) "scripted spawns" 2 t.Fleet.t_conns_opened;
  Alcotest.(check int) "scripted retires drained and closed" 2
    t.Fleet.t_conns_closed;
  (* closure over departed conns too, progress and drained closes *)
  Alcotest.(check (list string)) "invariants hold" []
    (Loadgen.Invariants.check
       { Loadgen.Invariants.base with measured_progress = true; churned = true }
       r);
  let o =
    match r.Fleet.observability with
    | Some o -> o
    | None -> Alcotest.fail "expected observability"
  in
  (* both scripted epochs appear as settling segments for the tenant *)
  let edges =
    List.map (fun (g : Observe.settle_report) -> g.Observe.g_edge_us)
      (List.filter
         (fun (g : Observe.settle_report) -> g.Observe.g_id = "churny/client")
         o.Observe.settling)
  in
  Alcotest.(check (list (float 1e-9))) "epochs are settling edges"
    [ 10_000.0; 20_000.0 ] edges;
  (* lifecycle events are on the trace with matching counts *)
  let opened, closed =
    List.fold_left
      (fun (op, cl) (rec_ : Sim.Trace.record) ->
        match rec_.Sim.Trace.event with
        | Sim.Trace.Conn_opened { inherited; _ } ->
          Alcotest.(check bool) "spawns inherit by default" true inherited;
          (op + 1, cl)
        | Sim.Trace.Conn_closed _ -> (op, cl + 1)
        | _ -> (op, cl))
      (0, 0) o.Observe.records
  in
  Alcotest.(check int) "Conn_opened events" 2 opened;
  Alcotest.(check int) "Conn_closed events" 2 closed

let test_churn_fleet_deterministic () =
  let r1 = Fleet.run (churn_fleet_config ()) in
  let r2 = Fleet.run (churn_fleet_config ()) in
  Alcotest.(check bool) "tenant results bit-identical" true
    (r1.Fleet.tenants = r2.Fleet.tenants);
  Alcotest.(check bool) "final modes bit-identical" true
    (Fleet.final_modes r1 = Fleet.final_modes r2)

(* {1 Chaos churn cells: ablation contract} *)

let test_chaos_churn_defaults_pass () =
  List.iter
    (fun (v : Chaos.verdict) ->
      Alcotest.(check (list string)) (v.cell.label ^ " ok") [] v.failures)
    (Chaos.run_grid (Chaos.churn_grid ()))

let test_chaos_churn_ablations_fail () =
  (* No inheritance: spawned togglers re-explore in lockstep and blow
     the mode-settle bound. *)
  let v = Chaos.run_cell (Chaos.load_cell ~inherit_prior:false Chaos.Churn_storm) in
  Alcotest.(check bool) "no-inherit fails" false (Chaos.ok v);
  Alcotest.(check bool) "failure names the mode series" true
    (List.exists (fun m -> contains m "modes") v.failures)

let test_chaos_churn_grid_parallel () =
  let run domains =
    List.map
      (fun (v : Chaos.verdict) -> (v.cell.label, v.result, v.failures))
      (Chaos.run_grid ~domains (Chaos.churn_grid ()))
  in
  Alcotest.(check bool) "domains 1 = 2" true (run 1 = run 2)

let suite =
  [
    ( "churn.arrival",
      [
        Alcotest.test_case "validation" `Quick test_arrival_validation;
        Alcotest.test_case "uniform gaps" `Quick test_uniform_gap;
        Alcotest.test_case "bursty preserves the rate" `Quick
          test_bursty_rate_preserved;
        Alcotest.test_case "envelope factor" `Quick test_envelope_factor;
        Alcotest.test_case "envelope edges" `Quick test_envelope_edges;
        Alcotest.test_case "envelope modulates gaps" `Quick
          test_envelope_modulates_gap;
        Alcotest.test_case "replay cycles" `Quick test_replay_cycles;
        Alcotest.test_case "gap loader" `Quick test_gap_loader;
      ] );
    ( "churn.cold_start",
      [
        Alcotest.test_case "cold estimator publishes nothing" `Quick
          test_estimator_cold_start;
        Alcotest.test_case "warm estimator publishes" `Quick
          test_warm_estimator_publishes;
      ] );
    ( "churn.settling",
      [
        Alcotest.test_case "immediate" `Quick test_judge_settle_immediate;
        Alcotest.test_case "step change" `Quick test_judge_settle_step;
        Alcotest.test_case "never / too few" `Quick test_judge_settle_never;
        Alcotest.test_case "mode band" `Quick test_judge_settle_mode_band;
        Alcotest.test_case "boundary exclusion" `Quick
          test_judge_settle_excludes_boundaries;
      ] );
    ( "churn.fleet",
      [
        Alcotest.test_case "lifecycle + settling edges" `Quick
          test_churn_fleet_lifecycle;
        Alcotest.test_case "deterministic" `Quick test_churn_fleet_deterministic;
      ] );
    ( "churn.chaos",
      [
        Alcotest.test_case "default cells pass" `Slow
          test_chaos_churn_defaults_pass;
        Alcotest.test_case "ablations fail" `Slow test_chaos_churn_ablations_fail;
        Alcotest.test_case "grid domains 1 = 2" `Slow
          test_chaos_churn_grid_parallel;
      ] );
  ]
