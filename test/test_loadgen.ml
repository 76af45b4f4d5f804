(* Unit tests for the load-generation library: arrival processes,
   workload specs, the latency recorder, and the sweep analysis
   helpers. *)

(* {1 Arrival} *)

let mean_gap arrival n =
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Loadgen.Arrival.next_gap arrival ~now:0
  done;
  float_of_int !total /. float_of_int n

let test_poisson_mean_rate () =
  let rng = Sim.Rng.create ~seed:5 in
  let a = Loadgen.Arrival.poisson ~rng ~rate_rps:50e3 in
  let mean = mean_gap a 50_000 in
  (* 50 kRPS -> 20us mean gap *)
  if Float.abs (mean -. 20_000.0) > 300.0 then
    Alcotest.failf "poisson mean gap %f" mean

let test_uniform_exact () =
  let a = Loadgen.Arrival.uniform ~rate_rps:10e3 in
  for _ = 1 to 10 do
    Alcotest.(check int) "fixed gap" 100_000 (Loadgen.Arrival.next_gap a ~now:0)
  done

let test_bursty_preserves_rate () =
  let rng = Sim.Rng.create ~seed:6 in
  let a = Loadgen.Arrival.bursty ~rng ~rate_rps:50e3 ~burst:4 in
  let mean = mean_gap a 40_000 in
  if Float.abs (mean -. 20_000.0) > 500.0 then
    Alcotest.failf "bursty long-run gap %f" mean;
  (* bursts contain zero gaps *)
  let zeros = ref 0 in
  for _ = 1 to 400 do
    if Loadgen.Arrival.next_gap a ~now:0 = 0 then incr zeros
  done;
  Alcotest.(check bool) "roughly 3/4 zero gaps" true (!zeros > 250 && !zeros < 350)

let test_arrival_validation () =
  let rng = Sim.Rng.create ~seed:1 in
  Alcotest.check_raises "zero rate" (Invalid_argument "Arrival: rate must be finite and positive")
    (fun () -> ignore (Loadgen.Arrival.poisson ~rng ~rate_rps:0.0));
  Alcotest.check_raises "bad burst"
    (Invalid_argument "Arrival.bursty: burst must be >= 1") (fun () ->
      ignore (Loadgen.Arrival.bursty ~rng ~rate_rps:1.0 ~burst:0))

(* {1 Workload} *)

let test_workload_mix_ratio () =
  let rng = Sim.Rng.create ~seed:11 in
  let wl = Loadgen.Workload.paper_mixed in
  let sets = ref 0 and gets = ref 0 in
  for _ = 1 to 20_000 do
    match Loadgen.Workload.next_command wl ~rng with
    | Kv.Command.Set _ -> incr sets
    | Kv.Command.Get _ -> incr gets
    | _ -> Alcotest.fail "unexpected command kind"
  done;
  let ratio = float_of_int !sets /. 20_000.0 in
  if Float.abs (ratio -. 0.95) > 0.01 then Alcotest.failf "set ratio %f" ratio

let test_workload_key_width () =
  let rng = Sim.Rng.create ~seed:12 in
  let wl = Loadgen.Workload.paper_set_only in
  for _ = 1 to 100 do
    match Loadgen.Workload.next_command wl ~rng with
    | Kv.Command.Set { key; value; _ } ->
      Alcotest.(check int) "key width" wl.key_size (String.length key);
      Alcotest.(check int) "value width" wl.value_size (String.length value)
    | _ -> Alcotest.fail "expected SET"
  done

let test_workload_sizes () =
  let wl = Loadgen.Workload.paper_set_only in
  (* SET request: *3 $3 SET $16 key $16384 value + CRLFs ~ 16.4KB *)
  let set_req = Loadgen.Workload.request_bytes wl `Set in
  Alcotest.(check bool) "set request ~16.4KB" true (set_req > 16_400 && set_req < 16_500);
  Alcotest.(check int) "set response +OK" 5 (Loadgen.Workload.response_bytes wl `Set);
  let get_resp = Loadgen.Workload.response_bytes wl `Get in
  Alcotest.(check bool) "get response ~16.4KB" true
    (get_resp > 16_380 && get_resp < 16_420)

let test_workload_prepopulate_hits () =
  let rng = Sim.Rng.create ~seed:13 in
  let wl = { Loadgen.Workload.paper_mixed with set_ratio = 0.0 } in
  let store = Kv.Store.create () in
  Loadgen.Workload.prepopulate wl store ~now:0;
  for _ = 1 to 200 do
    match Loadgen.Workload.next_command wl ~rng with
    | Kv.Command.Get key ->
      if Kv.Store.get store ~now:0 key = None then Alcotest.failf "miss on %s" key
    | _ -> Alcotest.fail "expected GET"
  done

let test_workload_validate () =
  (match Loadgen.Workload.validate Loadgen.Workload.paper_set_only with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match
    Loadgen.Workload.validate { Loadgen.Workload.paper_set_only with set_ratio = 1.5 }
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad ratio"

(* {1 Recorder} *)

let test_recorder_warmup_exclusion () =
  let r = Loadgen.Recorder.create ~warmup_until:(Sim.Time.ms 10) () in
  Loadgen.Recorder.record r ~at:(Sim.Time.ms 5) ~latency:(Sim.Time.us 999);
  Loadgen.Recorder.record r ~at:(Sim.Time.ms 15) ~latency:(Sim.Time.us 100);
  Alcotest.(check int) "warmup sample dropped" 1 (Loadgen.Recorder.count r);
  Alcotest.(check (float 1e-9)) "mean from kept sample" 100.0
    (Loadgen.Recorder.mean_us r)

let test_recorder_slo_fraction () =
  let r = Loadgen.Recorder.create ~warmup_until:0 () in
  List.iter
    (fun us -> Loadgen.Recorder.record r ~at:(Sim.Time.ms 1) ~latency:(Sim.Time.us us))
    [ 100; 200; 600; 700 ];
  Alcotest.(check (float 1e-9)) "half under 500us" 0.5
    (Loadgen.Recorder.under_slo_fraction r ~slo_us:500.0);
  Alcotest.(check (float 1e-9)) "empty recorder is compliant" 1.0
    (Loadgen.Recorder.under_slo_fraction
       (Loadgen.Recorder.create ~warmup_until:0 ())
       ~slo_us:500.0)

(* The recorder keeps its samples unboxed; the fraction must equal the
   one a plain list of every recorded sample gives, ties at the SLO
   included.  Latencies are whole microseconds, and the SLO is one of
   them, so many samples sit exactly on it. *)
let prop_recorder_slo_matches_list =
  QCheck.Test.make ~name:"under_slo_fraction agrees with a list" ~count:200
    QCheck.(pair (list_of_size Gen.(0 -- 3000) (int_range 1 50)) (int_range 0 51))
    (fun (samples, slo) ->
      let r = Loadgen.Recorder.create ~warmup_until:0 () in
      List.iter
        (fun us -> Loadgen.Recorder.record r ~at:(Sim.Time.ms 1) ~latency:(Sim.Time.us us))
        samples;
      let slo_us = float_of_int slo in
      let expected =
        match samples with
        | [] -> 1.0
        | _ ->
          let under = List.filter (fun us -> Sim.Time.to_us (Sim.Time.us us) <= slo_us) samples in
          float_of_int (List.length under) /. float_of_int (List.length samples)
      in
      Float.equal expected (Loadgen.Recorder.under_slo_fraction r ~slo_us))

let test_recorder_percentiles_ordered () =
  let r = Loadgen.Recorder.create ~warmup_until:0 () in
  for i = 1 to 1000 do
    Loadgen.Recorder.record r ~at:(Sim.Time.ms 1) ~latency:(Sim.Time.us i)
  done;
  Alcotest.(check bool) "p50 <= p99" true
    (Loadgen.Recorder.p50_us r <= Loadgen.Recorder.p99_us r);
  Alcotest.(check bool) "p99 <= max" true
    (Loadgen.Recorder.p99_us r <= Loadgen.Recorder.max_us r +. 1.0)

(* {1 Sweep analysis} *)

(* A synthetic Runner.result with the two fields the analysis reads. *)
let fake_result ~rate ~mean ~achieved : Loadgen.Runner.result =
  {
    offered_rps = rate;
    achieved_rps = achieved;
    completed = 1000;
    issued = 1000;
    completed_total = 1000;
    outstanding_end = 0;
    link_dropped = 0;
    shares_corrupted = 0;
    shares_rejected = 0;
    degrade_freezes = None;
    degrade_thaws = None;
    degrade_frozen_end = None;
    measured_mean_us = mean;
    measured_p50_us = mean;
    measured_p99_us = mean *. 2.0;
    under_slo = (if mean <= 500.0 then 1.0 else 0.0);
    estimated_us = Some (mean *. 0.9);
    estimated_local_us = None;
    estimated_remote_us = None;
    hint_estimated_us = Some mean;
    hint_server_estimated_us = None;
    client_app_util = 0.1;
    server_app_util = 0.5;
    client_irq_util = 0.2;
    server_irq_util = 0.4;
    packets = 10_000;
    packets_per_request = 19.0;
    server_batch_mean = 1.0;
    server_wakeups = 1000;
    nagle_toggles = 0;
    final_mode = None;
    final_batch_limit = None;
    server_gro_merge = 10.0;
    client_srtt_us = Some 40.0;
    client_p99_est_us = Some (mean *. 2.0);
    samples = [];
    observability = None;
  }

let fake_point rate ~on_mean ~off_mean : Loadgen.Sweep.point =
  {
    rate_rps = rate;
    on = fake_result ~rate ~mean:on_mean ~achieved:rate;
    off = fake_result ~rate ~mean:off_mean ~achieved:rate;
  }

let synthetic_sweep =
  [
    fake_point 10e3 ~on_mean:200.0 ~off_mean:60.0;
    fake_point 40e3 ~on_mean:150.0 ~off_mean:80.0;
    fake_point 70e3 ~on_mean:130.0 ~off_mean:160.0;
    fake_point 100e3 ~on_mean:140.0 ~off_mean:900.0;
    fake_point 130e3 ~on_mean:600.0 ~off_mean:2000.0;
  ]

let test_sweep_cutoff_detection () =
  match Loadgen.Sweep.cutoff_rps synthetic_sweep with
  | Some c -> Alcotest.(check (float 1.0)) "cutoff at 70k" 70e3 c
  | None -> Alcotest.fail "no cutoff"

let test_sweep_cutoff_requires_suffix () =
  (* A single early crossing that reverts later must not count. *)
  let noisy =
    [
      fake_point 10e3 ~on_mean:50.0 ~off_mean:60.0 (* on wins here... *);
      fake_point 40e3 ~on_mean:150.0 ~off_mean:80.0 (* ...but loses here *);
      fake_point 70e3 ~on_mean:130.0 ~off_mean:160.0;
    ]
  in
  match Loadgen.Sweep.cutoff_rps noisy with
  | Some c -> Alcotest.(check (float 1.0)) "ignores early blip" 70e3 c
  | None -> Alcotest.fail "no cutoff"

let test_sweep_sustainable_and_extension () =
  (match Loadgen.Sweep.max_sustainable_rps ~which:`Off ~slo_us:500.0 synthetic_sweep with
  | Some r -> Alcotest.(check (float 1.0)) "off max 70k" 70e3 r
  | None -> Alcotest.fail "off sustainable missing");
  (match Loadgen.Sweep.max_sustainable_rps ~which:`On ~slo_us:500.0 synthetic_sweep with
  | Some r -> Alcotest.(check (float 1.0)) "on max 100k" 100e3 r
  | None -> Alcotest.fail "on sustainable missing");
  match Loadgen.Sweep.range_extension ~slo_us:500.0 synthetic_sweep with
  | Some ext -> Alcotest.(check (float 1e-6)) "extension" (100.0 /. 70.0) ext
  | None -> Alcotest.fail "no extension"

let test_sweep_sustainable_requires_achieved () =
  (* High offered load that the system does not actually achieve must
     not count as sustainable even if mean latency looks low. *)
  let points =
    [
      {
        Loadgen.Sweep.rate_rps = 100e3;
        on = fake_result ~rate:100e3 ~mean:100.0 ~achieved:50e3;
        off = fake_result ~rate:100e3 ~mean:100.0 ~achieved:50e3;
      };
    ]
  in
  Alcotest.(check bool) "not sustainable" true
    (Loadgen.Sweep.max_sustainable_rps ~which:`On ~slo_us:500.0 points = None)

let test_sweep_latency_improvement () =
  match Loadgen.Sweep.latency_improvement_at ~rate_rps:100e3 synthetic_sweep with
  | Some ratio -> Alcotest.(check (float 1e-6)) "900/140" (900.0 /. 140.0) ratio
  | None -> Alcotest.fail "no improvement ratio"

let test_sweep_estimated_cutoff () =
  (* estimates are mean*0.9 in the fake results, so the estimated
     cutoff coincides with the measured one. *)
  match Loadgen.Sweep.estimated_cutoff_rps synthetic_sweep with
  | Some c -> Alcotest.(check (float 1.0)) "estimated cutoff" 70e3 c
  | None -> Alcotest.fail "no estimated cutoff"

let suite =
  [
    ( "loadgen.arrival",
      [
        Alcotest.test_case "poisson mean rate" `Slow test_poisson_mean_rate;
        Alcotest.test_case "uniform exact gaps" `Quick test_uniform_exact;
        Alcotest.test_case "bursty preserves rate" `Slow test_bursty_preserves_rate;
        Alcotest.test_case "validation" `Quick test_arrival_validation;
      ] );
    ( "loadgen.workload",
      [
        Alcotest.test_case "mix ratio" `Quick test_workload_mix_ratio;
        Alcotest.test_case "key/value widths" `Quick test_workload_key_width;
        Alcotest.test_case "wire sizes" `Quick test_workload_sizes;
        Alcotest.test_case "prepopulate hits" `Quick test_workload_prepopulate_hits;
        Alcotest.test_case "validate" `Quick test_workload_validate;
      ] );
    ( "loadgen.recorder",
      [
        Alcotest.test_case "warmup exclusion" `Quick test_recorder_warmup_exclusion;
        Alcotest.test_case "SLO fraction" `Quick test_recorder_slo_fraction;
        Alcotest.test_case "percentiles ordered" `Quick test_recorder_percentiles_ordered;
        QCheck_alcotest.to_alcotest prop_recorder_slo_matches_list;
      ] );
    ( "loadgen.sweep",
      [
        Alcotest.test_case "cutoff detection" `Quick test_sweep_cutoff_detection;
        Alcotest.test_case "cutoff ignores early blip" `Quick
          test_sweep_cutoff_requires_suffix;
        Alcotest.test_case "sustainable + extension" `Quick
          test_sweep_sustainable_and_extension;
        Alcotest.test_case "sustainable requires achieved" `Quick
          test_sweep_sustainable_requires_achieved;
        Alcotest.test_case "latency improvement" `Quick test_sweep_latency_improvement;
        Alcotest.test_case "estimated cutoff" `Quick test_sweep_estimated_cutoff;
      ] );
  ]
