(* Tests for the structured observability layer: the metrics registry,
   the residual tracker, the observed-run output, and the headline
   guarantee that attaching observability does not change simulation
   results (bit-identical, like PR-1's parallel-sweep determinism). *)

(* {1 Metrics registry} *)

let test_metrics_counter () =
  let m = Sim.Metrics.create () in
  let c = Sim.Metrics.counter m "packets" in
  Sim.Metrics.incr c;
  Sim.Metrics.incr ~by:4 c;
  Alcotest.(check int) "value" 5 (Sim.Metrics.counter_value c);
  Alcotest.(check string) "name" "packets" (Sim.Metrics.counter_name c);
  (* get-or-create returns the same instrument *)
  let c' = Sim.Metrics.counter m "packets" in
  Sim.Metrics.incr c';
  Alcotest.(check int) "shared" 6 (Sim.Metrics.counter_value c)

let test_metrics_sample_order () =
  let m = Sim.Metrics.create () in
  ignore (Sim.Metrics.counter m "a");
  Sim.Metrics.gauge m "b" (fun () -> 2.5);
  let h = Sim.Metrics.histogram m "c" in
  Sim.Histo.add h 10.0;
  Sim.Histo.add h 20.0;
  Alcotest.(check (list string)) "registration order" [ "a"; "b"; "c" ]
    (Sim.Metrics.names m);
  let s = Sim.Metrics.sample m ~at:(Sim.Time.us 7) in
  Alcotest.(check (list string)) "sample keys in order"
    [ "a"; "b"; "c.count"; "c.mean"; "c.p99" ]
    (List.map fst s.values);
  Alcotest.(check (float 1e-9)) "gauge read" 2.5 (List.assoc "b" s.values);
  Alcotest.(check (float 1e-9)) "hist count" 2.0 (List.assoc "c.count" s.values)

(* 10k gauges (a few thousand observed connections): registration
   order is kept, and re-registering a name replaces its gauge in
   place. *)
let test_metrics_many_gauges () =
  let m = Sim.Metrics.create () in
  let names = List.init 10_000 (Printf.sprintf "c%d.unacked") in
  List.iter (fun n -> Sim.Metrics.gauge m n (fun () -> 1.0)) names;
  Sim.Metrics.gauge m "c7.unacked" (fun () -> 2.0);
  Alcotest.(check (list string)) "registration order" names (Sim.Metrics.names m);
  let s = Sim.Metrics.sample m ~at:0 in
  Alcotest.(check (float 0.0)) "replaced gauge read" 2.0 (List.assoc "c7.unacked" s.values)

let test_metrics_kind_mismatch () =
  let m = Sim.Metrics.create () in
  ignore (Sim.Metrics.counter m "x");
  (match Sim.Metrics.histogram m "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for counter->histogram");
  match Sim.Metrics.gauge m "x" (fun () -> 0.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for counter->gauge"

let test_metrics_sample_json () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.gauge m "good" (fun () -> 1.5);
  Sim.Metrics.gauge m "bad" (fun () -> Float.nan);
  let line = Sim.Metrics.sample_to_json (Sim.Metrics.sample m ~at:(Sim.Time.us 3)) in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length line && (String.sub line i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "flat object" true
    (String.length line > 1 && line.[0] = '{' && line.[String.length line - 1] = '}');
  Alcotest.(check bool) "finite gauge present" true (contains "\"good\":1.5");
  Alcotest.(check bool) "non-finite becomes null" true (contains "\"bad\":null")

let test_metrics_duplicate_registration () =
  let m = Sim.Metrics.create () in
  let c = Sim.Metrics.counter m "dup.counter" in
  let h = Sim.Metrics.histogram m "dup.hist" in
  Sim.Metrics.gauge m "dup.gauge" (fun () -> 1.0);
  (* re-registration must not create a second series *)
  Alcotest.(check bool) "counter re-registered is the same" true
    (Sim.Metrics.counter m "dup.counter" == c);
  Alcotest.(check bool) "histogram re-registered is the same" true
    (Sim.Metrics.histogram m "dup.hist" == h);
  Sim.Metrics.gauge m "dup.gauge" (fun () -> 2.0);
  Alcotest.(check (list string)) "no duplicate names"
    [ "dup.counter"; "dup.hist"; "dup.gauge" ]
    (Sim.Metrics.names m);
  (* a replaced gauge reads through to the new closure *)
  let s = Sim.Metrics.sample m ~at:Sim.Time.zero in
  Alcotest.(check (float 1e-9)) "gauge replaced" 2.0
    (List.assoc "dup.gauge" s.values)

(* {1 Residuals} *)

let test_residual_percentiles_exact () =
  let r = E2e.Residual.create () in
  (* |e| = 1..100; nearest-rank: p50=50, p95=95, p99=99, max=100 *)
  for i = 1 to 100 do
    let sign = if i mod 2 = 0 then 1.0 else -1.0 in
    E2e.Residual.observe r ~at_us:(float_of_int i) ~window_us:1000.0
      ~est_us:(100.0 +. (sign *. float_of_int i))
      ~truth_us:100.0
  done;
  Alcotest.(check int) "count" 100 (E2e.Residual.count r);
  match E2e.Residual.summary r with
  | None -> Alcotest.fail "expected a summary"
  | Some s ->
    Alcotest.(check (float 1e-9)) "p50" 50.0 s.p50_abs_us;
    Alcotest.(check (float 1e-9)) "p95" 95.0 s.p95_abs_us;
    Alcotest.(check (float 1e-9)) "p99" 99.0 s.p99_abs_us;
    Alcotest.(check (float 1e-9)) "max" 100.0 s.max_abs_us;
    Alcotest.(check (float 1e-9)) "mean |e|" 50.5 s.mean_abs_us;
    (* signs alternate over 1..100: sum = +2+4+... - (1+3+...) = 50 *)
    Alcotest.(check (float 1e-9)) "bias" 0.5 s.bias_us

let test_residual_empty () =
  Alcotest.(check bool) "no pairs, no summary" true
    (E2e.Residual.summary (E2e.Residual.create ()) = None);
  Alcotest.(check bool) "summary_of_pairs []" true
    (E2e.Residual.summary_of_pairs [] = None)

(* {1 Observed runs} *)

let small_base () =
  let base =
    Loadgen.Runner.default_config ~rate_rps:0.0 ~batching:Loadgen.Runner.Static_off
  in
  { base with warmup = Sim.Time.ms 5; duration = Sim.Time.ms 25 }

let observed_run ?(batching = Loadgen.Runner.Static_off) ?(rate = 60e3) () =
  let base = small_base () in
  Loadgen.Runner.run
    {
      base with
      rate_rps = rate;
      batching;
      (* large enough that the ring keeps every event of a 30 ms run:
         the drop-accounting and truth-reconstruction checks need the
         full record *)
      observe =
        Some { Loadgen.Observe.default_config with trace_capacity = 1 lsl 19 };
    }

let test_observed_run_output () =
  let r = observed_run () in
  match r.observability with
  | None -> Alcotest.fail "expected observability output"
  | Some o ->
    Alcotest.(check bool) "has records" true (o.records <> []);
    let tags tag =
      List.length (List.filter (fun rc -> Sim.Trace.tag rc = tag) o.records)
    in
    Alcotest.(check bool) "tx events" true (tags "tx" > 0);
    Alcotest.(check bool) "request events" true (tags "request" > 0);
    Alcotest.(check bool) "estimate events" true (tags "estimate" > 0);
    Alcotest.(check bool) "share events" true (tags "share" > 0);
    Alcotest.(check int) "nothing dropped at this size" 0 o.dropped_records;
    (* 30 ms total at 1 ms cadence: first tick at 1 ms, last at 30 ms *)
    Alcotest.(check int) "sample count = total/interval" 30 (List.length o.samples);
    (match o.samples with
    | s :: _ ->
      Alcotest.(check bool) "per-conn queue gauges sampled" true
        (List.mem_assoc "c0.unacked" s.values && List.mem_assoc "s0.unread" s.values)
    | [] -> Alcotest.fail "expected samples");
    (match o.residual with
    | Some s -> Alcotest.(check bool) "residual has pairs" true (s.n > 0)
    | None -> Alcotest.fail "expected a residual summary");
    Alcotest.(check int) "pairs match summary n"
      (match o.residual with Some s -> s.n | None -> -1)
      (List.length o.residual_pairs)

(* The headline guarantee: observability is read-only.  Stripping the
   observability field from an observed run must leave a result
   bit-identical to the unobserved run — structural equality over every
   float, list and option in the record. *)
let strip (r : Loadgen.Runner.result) = { r with observability = None }

let test_observe_deterministic_static () =
  let base = { (small_base ()) with rate_rps = 60e3 } in
  let plain = Loadgen.Runner.run base in
  let observed =
    Loadgen.Runner.run { base with observe = Some Loadgen.Observe.default_config }
  in
  Alcotest.(check bool) "observe on = off (static)" true (strip observed = plain)

let test_observe_deterministic_dynamic () =
  let base =
    {
      (small_base ()) with
      rate_rps = 80e3;
      batching = Loadgen.Runner.Dynamic Loadgen.Runner.default_dynamic;
    }
  in
  let plain = Loadgen.Runner.run base in
  let observed =
    Loadgen.Runner.run { base with observe = Some Loadgen.Observe.default_config }
  in
  Alcotest.(check bool) "observe on = off (dynamic)" true (strip observed = plain)

(* A sinked run must stream to the callback what a big-ring run would
   have stored, in the same order, leave the ring empty, drop nothing —
   and change no simulation result (the sink is invoked synchronously
   from the run but only observes). *)
let test_observe_trace_sink () =
  let base = { (small_base ()) with rate_rps = 50e3 } in
  let ring_cfg =
    { Loadgen.Observe.default_config with trace_capacity = 1 lsl 19 }
  in
  let ring = Loadgen.Runner.run { base with observe = Some ring_cfg } in
  let sunk_rev = ref [] in
  let sink_cfg =
    {
      ring_cfg with
      (* tiny ring: with a sink installed its size must not matter *)
      trace_capacity = 64;
      trace_sink = Some (fun r -> sunk_rev := r :: !sunk_rev);
    }
  in
  let sinked = Loadgen.Runner.run { base with observe = Some sink_cfg } in
  Alcotest.(check bool) "sink does not perturb the run" true
    (strip sinked = strip ring);
  (match sinked.observability with
  | None -> Alcotest.fail "no observability output (sink run)"
  | Some o ->
    Alcotest.(check int) "ring stays empty with a sink" 0 (List.length o.records);
    Alcotest.(check int) "nothing dropped with a sink" 0 o.dropped_records);
  match ring.observability with
  | None -> Alcotest.fail "no observability output (ring run)"
  | Some o ->
    Alcotest.(check int) "sink saw as many records as the ring stored"
      (List.length o.records)
      (List.length !sunk_rev);
    Alcotest.(check bool) "sink saw the same records in the same order" true
      (List.rev !sunk_rev = o.records)

let slo_reports_of records =
  let fold = Loadgen.Observe.slo_fold () in
  List.iter (Loadgen.Observe.slo_fold_record fold) records;
  Loadgen.Observe.slo_reports fold

let slo_reports_of_file path =
  let fold = Loadgen.Observe.slo_fold () in
  match
    Sim.Trace.fold_file path ~init:() ~f:(fun () _ r -> Loadgen.Observe.slo_fold_record fold r)
  with
  | Ok () -> Loadgen.Observe.slo_reports fold
  | Error msg -> Alcotest.failf "%s did not load: %s" path msg

(* A run streamed into a binary trace file holds every record it
   emitted, even far past the ring's capacity: nothing is dropped, the
   SLO declaration appears once per declared id, the completions in the
   file rebuild each id's SLO report exactly (count, violations,
   histogram p50/p95/p99), and the file folds to the same reports as a
   ring that kept the whole run. *)
let test_observe_streamed_trace_complete () =
  let capacity = 1024 in
  let path = Filename.temp_file "e2e_stream" ".bin" in
  let oc = open_out_bin path in
  let w = Sim.Trace.Binary.writer oc in
  let handed = ref 0 in
  let cfg =
    {
      Loadgen.Observe.default_config with
      trace_capacity = capacity;
      trace_sink =
        Some
          (fun r ->
            incr handed;
            Sim.Trace.Binary.write w r);
    }
  in
  let r = Loadgen.Runner.run { (small_base ()) with rate_rps = 60e3; observe = Some cfg } in
  Sim.Trace.Binary.finish w;
  close_out oc;
  let records =
    match Sim.Trace.Binary.load_file path with
    | Ok l -> List.map snd l
    | Error msg -> Alcotest.failf "trace file did not load: %s" msg
  in
  let reports = slo_reports_of_file path in
  Sys.remove path;
  let o = match r.observability with Some o -> o | None -> Alcotest.fail "no observability output" in
  (* emitted = retained (0 with a sink) + sunk + dropped *)
  Alcotest.(check int) "nothing dropped" 0 o.dropped_records;
  Alcotest.(check int) "the file holds every emitted record" !handed (List.length records);
  Alcotest.(check bool) "more records than the ring holds" true (List.length records > capacity);
  Alcotest.(check bool) "an SLO is declared" true (reports <> []);
  List.iter
    (fun (s : Loadgen.Observe.slo_report) ->
      let mine = List.filter (fun (rc : Sim.Trace.record) -> rc.id = s.r_id) records in
      let declared =
        List.filter
          (fun (rc : Sim.Trace.record) ->
            match rc.event with Sim.Trace.Message { tag = "slo_declared"; _ } -> true | _ -> false)
          mine
      in
      Alcotest.(check int) (s.r_id ^ ": one slo_declared") 1 (List.length declared);
      let latencies =
        List.filter_map
          (fun (rc : Sim.Trace.record) ->
            match rc.event with Sim.Trace.Request_done { latency_us } -> Some latency_us | _ -> None)
          mine
      in
      let h = Sim.Histo.create () in
      List.iter (Sim.Histo.add h) latencies;
      let q p = Sim.Histo.quantile h p in
      Alcotest.(check bool) (s.r_id ^ ": completions in the run") true (s.r_total > 0);
      Alcotest.(check int) (s.r_id ^ ": completions") s.r_total (List.length latencies);
      Alcotest.(check int) (s.r_id ^ ": violations") s.r_violations
        (List.length (List.filter (fun l -> l > s.r_slo_us) latencies));
      Alcotest.(check (list (option (float 0.0))))
        (s.r_id ^ ": p50/p95/p99")
        [ s.r_p50_us; s.r_p95_us; s.r_p99_us ]
        [ q 50.0; q 95.0; q 99.0 ])
    reports;
  match (observed_run ()).observability with
  | None -> Alcotest.fail "no observability output (ring run)"
  | Some ring ->
    Alcotest.(check int) "the ring kept the whole run" 0 ring.dropped_records;
    Alcotest.(check bool) "file and ring fold to the same reports" true
      (slo_reports_of ring.records = reports)

(* {1 SLO fold} *)

let record ~at_us id event = { Sim.Trace.at = Sim.Time.us at_us; id; event }
let declared ~at_us id slo_us =
  record ~at_us id
    (Sim.Trace.Message { tag = "slo_declared"; detail = Printf.sprintf "%.17g" slo_us })
let done_ ~at_us id latency_us = record ~at_us id (Sim.Trace.Request_done { latency_us })

(* Burn is evaluated at each completion t over (t - 10 ms, t]: the
   completion at t itself is in, one at exactly t - 10 ms is out. *)
let test_slo_fold_exact () =
  match
    slo_reports_of
      [ declared ~at_us:0 "a" 100.0;
        done_ ~at_us:1_000 "a" 50.0;
        (* in its own window: 1 of 2 violate, burn 0.5 / 1% = 50 *)
        done_ ~at_us:2_000 "a" 200.0;
        done_ ~at_us:5_000 "a" 50.0;
        (* (2 ms, 12 ms]: the violation at exactly 2 ms is out, burn 0 *)
        done_ ~at_us:12_000 "a" 50.0 ]
  with
  | [ r ] ->
    Alcotest.(check string) "id" "a" r.r_id;
    Alcotest.(check (float 0.0)) "slo" 100.0 r.r_slo_us;
    Alcotest.(check int) "total" 4 r.r_total;
    Alcotest.(check int) "violations" 1 r.r_violations;
    Alcotest.(check (float 1e-12)) "attainment" 0.75 r.r_attainment;
    Alcotest.(check (float 1e-9)) "max burn" 50.0 r.r_max_burn;
    Alcotest.(check (float 0.0)) "final burn" 0.0 r.r_final_burn;
    Alcotest.(check (option (float 0.0))) "first crossing" (Some 2_000.0) r.r_first_burn_us
  | l -> Alcotest.failf "expected one report, got %d" (List.length l)

(* Completions, edges and anything else under an id that declared no
   SLO are ignored; a declared id with no completions still reports. *)
let test_slo_fold_undeclared () =
  let reports =
    slo_reports_of
      [ done_ ~at_us:500 "a" 900.0;
        declared ~at_us:1_000 "a" 100.0;
        declared ~at_us:1_000 "idle" 100.0;
        done_ ~at_us:2_000 "a" 50.0;
        done_ ~at_us:2_000 "b" 900.0;
        done_ ~at_us:3_000 "b" 900.0;
        record ~at_us:3_000 "b" (Sim.Trace.Message { tag = "edge"; detail = "3000" }) ]
  in
  Alcotest.(check (list string)) "declared ids, in order" [ "a"; "idle" ]
    (List.map (fun (r : Loadgen.Observe.slo_report) -> r.r_id) reports);
  match reports with
  | [ a; idle ] ->
    Alcotest.(check int) "a: only its declared completions" 1 a.r_total;
    Alcotest.(check int) "a: no violations" 0 a.r_violations;
    Alcotest.(check int) "idle: no completions" 0 idle.r_total;
    Alcotest.(check (float 0.0)) "idle: attainment 1" 1.0 idle.r_attainment
  | _ -> Alcotest.fail "expected two reports"

(* The same run written as JSONL and as binary folds to equal reports. *)
let test_slo_fold_formats () =
  let bin = Filename.temp_file "e2e_slo" ".bin" and jsonl = Filename.temp_file "e2e_slo" ".jsonl" in
  let boc = open_out_bin bin and joc = open_out_bin jsonl in
  let w = Sim.Trace.Binary.writer boc in
  let sink r =
    Sim.Trace.Binary.write w r;
    output_string joc (Sim.Trace.record_to_json r);
    output_char joc '\n'
  in
  ignore
    (Loadgen.Runner.run
       {
         (small_base ()) with
         rate_rps = 60e3;
         observe = Some { Loadgen.Observe.default_config with trace_sink = Some sink };
       });
  Sim.Trace.Binary.finish w;
  close_out boc;
  close_out joc;
  let from_bin = slo_reports_of_file bin and from_jsonl = slo_reports_of_file jsonl in
  Sys.remove bin;
  Sys.remove jsonl;
  Alcotest.(check bool) "the run has completions" true
    (List.exists (fun (r : Loadgen.Observe.slo_report) -> r.r_total > 0) from_bin);
  Alcotest.(check bool) "JSONL = binary" true (from_jsonl = from_bin)

(* {1 Little's-law audit on real runs} *)

(* A deterministic observed run must close its own books: for every
   audited queue with meaningful traffic, the independently measured
   L, lambda and W satisfy L = lambda * W within 5% (the residue is
   boundary terms from units in flight at the window edges). *)
let test_audit_sanity () =
  let r = observed_run ~rate:60e3 () in
  match r.observability with
  | None -> Alcotest.fail "expected observability output"
  | Some o ->
    Alcotest.(check int) "six audited queues" 6 (List.length o.audits);
    let names = List.map (fun (a : Sim.Audit.report) -> a.queue) o.audits in
    Alcotest.(check bool) "client and server queues present" true
      (List.mem "c0.unacked" names && List.mem "s0.unread" names);
    List.iter
      (fun (a : Sim.Audit.report) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: window covers the measured run" a.queue)
          true
          (a.window_us > 0.0);
        if a.departures >= 100 then
          Alcotest.(check bool)
            (Printf.sprintf "%s: |L - lW| rel err %.4f <= 0.05" a.queue a.rel_err)
            true (a.rel_err <= 0.05))
      o.audits;
    (* the busy direction actually saw traffic, so the bound is not
       vacuously true *)
    let unacked =
      List.find (fun (a : Sim.Audit.report) -> a.queue = "c0.unacked") o.audits
    in
    Alcotest.(check bool) "c0.unacked saw departures" true
      (unacked.departures >= 100)

(* Observability (including the audit) must not perturb the domain
   fan-out: an observed on/off pair run on one domain and on two must
   agree structurally on everything, audits included. *)
let test_audit_domains_identical () =
  let base =
    {
      (small_base ()) with
      observe =
        Some { Loadgen.Observe.default_config with trace_capacity = 1 lsl 19 };
    }
  in
  let p1 = Loadgen.Sweep.run_pair ~domains:1 ~base ~rate_rps:60e3 () in
  let p2 = Loadgen.Sweep.run_pair ~domains:2 ~base ~rate_rps:60e3 () in
  let audits (r : Loadgen.Runner.result) =
    match r.observability with Some o -> o.audits | None -> []
  in
  Alcotest.(check bool) "audits present" true (audits p1.on <> []);
  Alcotest.(check bool) "audit reports identical" true
    (audits p1.on = audits p2.on && audits p1.off = audits p2.off);
  Alcotest.(check bool) "full results identical" true
    (Stdlib.compare p1 p2 = 0)

(* Residual ground truth must equal what the trace itself implies: the
   mean of Request_done latencies in (at - window, at], reconstructed
   from the output's records. *)
let prop_residual_truth_matches_trace =
  QCheck.Test.make ~count:4 ~name:"residual truth = mean Request_done over window"
    QCheck.(int_range 0 1000)
    (fun salt ->
      let rate = 40e3 +. float_of_int salt in
      let r = observed_run ~rate () in
      match r.observability with
      | None -> false
      | Some o ->
        let reqs =
          List.filter_map
            (fun (rc : Sim.Trace.record) ->
              match rc.event with
              | Sim.Trace.Request_done { latency_us } ->
                Some (Sim.Time.to_us rc.at, latency_us)
              | _ -> None)
            o.records
        in
        List.for_all
          (fun (p : E2e.Residual.pair) ->
            let inside =
              List.filter_map
                (fun (at, lat) ->
                  if at > p.at_us -. p.window_us && at <= p.at_us then Some lat
                  else None)
                reqs
            in
            match inside with
            | [] -> false (* a pair was recorded without ground truth *)
            | _ ->
              let mean =
                List.fold_left ( +. ) 0.0 inside /. float_of_int (List.length inside)
              in
              Float.abs (mean -. p.truth_us) <= 1e-6 *. Float.max 1.0 mean)
          o.residual_pairs)

let suite =
  [
    ( "observe",
      [
        Alcotest.test_case "metrics: counter" `Quick test_metrics_counter;
        Alcotest.test_case "metrics: sample order" `Quick test_metrics_sample_order;
        Alcotest.test_case "metrics: kind mismatch" `Quick test_metrics_kind_mismatch;
        Alcotest.test_case "metrics: 10k gauges" `Quick test_metrics_many_gauges;
        Alcotest.test_case "metrics: sample JSON" `Quick test_metrics_sample_json;
        Alcotest.test_case "metrics: duplicate registration" `Quick
          test_metrics_duplicate_registration;
        Alcotest.test_case "residual: exact percentiles" `Quick
          test_residual_percentiles_exact;
        Alcotest.test_case "residual: empty" `Quick test_residual_empty;
        Alcotest.test_case "observed run output" `Slow test_observed_run_output;
        Alcotest.test_case "observe on = off (static)" `Slow
          test_observe_deterministic_static;
        Alcotest.test_case "observe on = off (dynamic)" `Slow
          test_observe_deterministic_dynamic;
        Alcotest.test_case "trace sink streams the ring's records" `Slow
          test_observe_trace_sink;
        Alcotest.test_case "streamed trace is complete" `Slow
          test_observe_streamed_trace_complete;
        Alcotest.test_case "slo fold: exact burn and window edges" `Quick
          test_slo_fold_exact;
        Alcotest.test_case "slo fold: undeclared ids ignored" `Quick
          test_slo_fold_undeclared;
        Alcotest.test_case "slo fold: JSONL = binary" `Slow test_slo_fold_formats;
        Alcotest.test_case "little's-law audit closes" `Slow test_audit_sanity;
        Alcotest.test_case "audit identical across domains" `Slow
          test_audit_domains_identical;
        QCheck_alcotest.to_alcotest ~long:true prop_residual_truth_matches_trace;
      ] );
  ]
