(* Trace-reading monitors (Loadgen.Monitor) on hand-built records, and
   fold_runs over files. *)

module M = Loadgen.Monitor

let record ~at_us id event = { Sim.Trace.at = Sim.Time.us at_us; id; event }
let done_ ~at_us id latency_us = record ~at_us id (Sim.Trace.Request_done { latency_us })

let estimate ~at_us ~window_us est_us =
  record ~at_us "c0"
    (Sim.Trace.Estimate_computed { latency_us = Some est_us; throughput = 0.0; window_us })

let made ~at_us id decision ~mode ~action =
  record ~at_us id
    (Sim.Trace.Decision_made
       { decision; on_us = Some 50.0; off_us = None; mode; action; reason = "exploit";
         frozen = false; stale_us = -1.0 })

let outcome ~at_us id decision ~mean_us ~n =
  record ~at_us id (Sim.Trace.Decision_outcome { decision; mean_us; p99_us = 2.0 *. mean_us; n })

let feed_all feed m records =
  List.iter (feed m) records;
  m

(* Tenant groups follow the ids' tenant tags in first-appearance order,
   shard groups their "@s<k>" suffixes in shard order; untagged ids join
   neither, and every record joins the whole run. *)
let test_groups () =
  let ra =
    feed_all M.Run.feed (M.Run.create ~limit:2)
      [ done_ ~at_us:1 "vm/c0@s1" 10.0;
        done_ ~at_us:2 "bare/c0@s0" 20.0;
        done_ ~at_us:3 "c0" 30.0;
        done_ ~at_us:4 "vm/c1@s1" 40.0;
        record ~at_us:5 "" (Sim.Trace.Message { tag = "note"; detail = "" }) ]
  in
  let summary groups =
    List.map (fun (k, sa) -> (k, M.Spans.events sa, M.Spans.requests sa)) groups
  in
  Alcotest.(check (list (triple string int int))) "tenants, first appearance"
    [ ("vm", 2, 2); ("bare", 1, 1) ] (summary (M.Run.tenants ra));
  Alcotest.(check (list (triple int int int))) "shards, in shard order"
    [ (0, 1, 1); (1, 2, 2) ] (summary (M.Run.shards ra));
  Alcotest.(check int) "whole run" 5 (M.Spans.events (M.Run.all ra));
  Alcotest.(check (list (pair string (list (pair string int))))) "per-id tallies"
    [ ("vm/c0@s1", [ ("request", 1) ]); ("bare/c0@s0", [ ("request", 1) ]);
      ("c0", [ ("request", 1) ]); ("vm/c1@s1", [ ("request", 1) ]); ("-", [ ("note", 1) ]) ]
    (M.Run.conns ra);
  Alcotest.(check int) "timeline keeps the first [limit]" 2 (List.length (M.Run.timeline ra));
  Alcotest.(check (pair int int)) "time range" (1_000, 5_000) (M.Run.range ra)

(* An estimate at [at] over [w] pairs with the completions in
   (at - w, at]: one at exactly at - w is out, one at at is in, and an
   estimate with none in its window gives no pair. *)
let test_residual_window () =
  let sa =
    feed_all M.Spans.feed (M.Spans.create ())
      [ done_ ~at_us:100 "c0" 1000.0;
        done_ ~at_us:150 "c0" 30.0;
        done_ ~at_us:200 "c0" 50.0;
        estimate ~at_us:200 ~window_us:100.0 45.0;
        estimate ~at_us:500 ~window_us:100.0 45.0 ]
  in
  match M.Spans.residual_pairs sa with
  | [ p ] ->
    Alcotest.(check (float 0.0)) "at" 200.0 p.at_us;
    Alcotest.(check (float 0.0)) "truth: the mean of 150 and 200, not 100" 40.0 p.truth_us;
    Alcotest.(check (float 0.0)) "estimate" 45.0 p.est_us;
    Alcotest.(check int) "summary over the one pair" 1
      (match M.Spans.residual sa with Some s -> s.n | None -> 0)
  | l -> Alcotest.failf "expected one pair, got %d" (List.length l)

(* Flips are decisions whose action leaves the mode in force; each
   carries its own and its predecessor's tenure: open without an
   outcome record, idle with one that saw no completions. *)
let test_decision_chains () =
  let d =
    feed_all M.Decisions.feed (M.Decisions.create ())
      [ made ~at_us:1 "g" 0 ~mode:"off" ~action:"off";
        made ~at_us:2 "g" 1 ~mode:"off" ~action:"on";
        outcome ~at_us:2 "g" 0 ~mean_us:100.0 ~n:10;
        made ~at_us:3 "g" 2 ~mode:"on" ~action:"off";
        outcome ~at_us:3 "g" 1 ~mean_us:80.0 ~n:5;
        made ~at_us:4 "g" 3 ~mode:"off" ~action:"on";
        outcome ~at_us:4 "g" 2 ~mean_us:120.0 ~n:4;
        made ~at_us:5 "g" 4 ~mode:"on" ~action:"off";
        outcome ~at_us:5 "g" 3 ~mean_us:0.0 ~n:0;
        made ~at_us:1 "h" 0 ~mode:"on" ~action:"on" ]
  in
  match M.Decisions.groups d with
  | [ g; h ] -> (
    Alcotest.(check (list (pair string int))) "groups and decision counts"
      [ ("g", 5); ("h", 1) ] [ (g.id, g.decisions); (h.id, h.decisions) ];
    Alcotest.(check int) "h never flips" 0 (List.length h.flips);
    let verdict f =
      Option.map (fun (v : M.Decisions.verdict) -> (v.improved, v.by_us, v.pct))
        (M.Decisions.verdict f)
    in
    let judged = Alcotest.(option (triple bool (float 1e-9) (float 1e-9))) in
    match g.flips with
    | [ f1; f2; f3; f4 ] ->
      Alcotest.(check (list int)) "flip decisions" [ 1; 2; 3; 4 ]
        (List.map (fun (f : M.Decisions.flip) -> f.decision) g.flips);
      Alcotest.check judged "80 after 100: improved by 20 (-20%)"
        (Some (true, 20.0, -20.0)) (verdict f1);
      Alcotest.check judged "120 after 80: regressed by 40 (+50%)"
        (Some (false, 40.0, 50.0)) (verdict f2);
      Alcotest.(check bool) "decision 3's tenure is idle" true (f3.outcome = M.Decisions.Idle);
      Alcotest.check judged "no verdict against an idle tenure" None (verdict f3);
      Alcotest.(check bool) "decision 4's tenure is open" true (f4.outcome = M.Decisions.Open);
      Alcotest.(check bool) "its predecessor is idle" true (f4.previous = M.Decisions.Idle)
    | l -> Alcotest.failf "expected four flips, got %d" (List.length l))
  | l -> Alcotest.failf "expected two groups, got %d" (List.length l)

let write_jsonl path lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun (run, r) ->
          output_string oc (Sim.Trace.record_to_json ?run r);
          output_char oc '\n')
        lines)

let fold_decisions path =
  match M.fold_runs path ~make:(fun _ -> M.Decisions.create ()) ~feed:M.Decisions.feed with
  | Ok (runs, skipped) -> (List.map (fun (run, d) -> (run, M.Decisions.groups d)) runs, skipped)
  | Error msg -> Alcotest.failf "%s did not fold: %s" path msg

(* Two runs of one file with the same group id and decision numbers
   keep their own outcomes, and a record of an unknown event kind is
   skipped and counted. *)
let test_fold_runs_apart () =
  let path = Filename.temp_file "e2e_monitor" ".jsonl" in
  let run label mean_us =
    List.map
      (fun r -> (Some label, r))
      [ made ~at_us:1 "run" 0 ~mode:"off" ~action:"on";
        made ~at_us:2 "run" 1 ~mode:"on" ~action:"on";
        outcome ~at_us:2 "run" 0 ~mean_us ~n:3 ]
  in
  write_jsonl path (run "a" 10.0 @ run "b" 99.0);
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
      output_string oc "{\"at_ns\":3000,\"run\":\"b\",\"conn\":\"run\",\"ev\":\"future_kind\"}\n");
  let runs, skipped = fold_decisions path in
  Sys.remove path;
  Alcotest.(check int) "one unknown record skipped" 1 skipped;
  let outcome_of = function
    | [ { M.Decisions.flips = [ { outcome = Done { mean_us; _ }; _ } ]; _ } ] -> mean_us
    | _ -> Alcotest.fail "expected one group with one judged flip"
  in
  Alcotest.(check (list (pair string (float 0.0)))) "each run's own outcome"
    [ ("a", 10.0); ("b", 99.0) ]
    (List.map (fun (run, groups) -> (run, outcome_of groups)) runs)

(* Everything a Run monitor reads out, for comparing two folds. *)
let run_view ra =
  let spans sa =
    ( M.Spans.events sa,
      M.Spans.requests sa,
      M.Spans.spans sa,
      M.Spans.incomplete sa,
      M.Spans.residual_pairs sa,
      M.Spans.audits sa )
  in
  ( (M.Run.range ra, M.Run.conns ra, M.Run.timeline ra, spans (M.Run.all ra)),
    List.map (fun (t, sa) -> (t, spans sa)) (M.Run.tenants ra),
    List.map (fun (k, sa) -> (k, spans sa)) (M.Run.shards ra) )

(* A sharded two-tenant dynamic fleet written as JSONL and as binary
   folds to equal monitors. *)
let test_formats () =
  let spec =
    match
      Scenario.Spec.of_string
        "fleet seed=11 warmup_ms=5 duration_ms=15 scope=per_conn batching=dynamic\n\
         server cores=2 lb=least_loaded\n\
         tenant name=bare conns=2 rate_rps=4000 batching=dynamic\n\
         tenant name=vm rate_rps=2000 mix=small cpu_mult=4 batching=dynamic\n"
    with
    | Ok spec -> spec
    | Error e -> Alcotest.failf "scenario: %s" e
  in
  let bin = Filename.temp_file "e2e_monitor" ".bin"
  and jsonl = Filename.temp_file "e2e_monitor" ".jsonl" in
  let boc = open_out_bin bin and joc = open_out_bin jsonl in
  let w = Sim.Trace.Binary.writer boc in
  let sink r =
    Sim.Trace.Binary.write w r;
    output_string joc (Sim.Trace.record_to_json r);
    output_char joc '\n'
  in
  ignore
    (Scenario.Exec.run
       ~observe:{ Loadgen.Observe.default_config with trace_sink = Some sink }
       spec);
  Sim.Trace.Binary.finish w;
  close_out boc;
  close_out joc;
  let fold path =
    match
      M.fold_runs path
        ~make:(fun _ -> (M.Run.create ~limit:50, M.Decisions.create ()))
        ~feed:(fun (ra, d) r ->
          M.Run.feed ra r;
          M.Decisions.feed d r)
    with
    | Ok ([ ("", (ra, d)) ], 0) -> (run_view ra, M.Decisions.groups d)
    | Ok _ -> Alcotest.failf "%s: expected one unlabelled run" path
    | Error msg -> Alcotest.failf "%s did not fold: %s" path msg
  in
  let ((_, tenants, shards), groups) as from_bin = fold bin in
  let from_jsonl = fold jsonl in
  Sys.remove bin;
  Sys.remove jsonl;
  Alcotest.(check (list string)) "both tenants" [ "bare"; "vm" ] (List.map fst tenants);
  Alcotest.(check (list int)) "both shards" [ 0; 1 ] (List.map fst shards);
  Alcotest.(check bool) "decisions traced" true (groups <> []);
  Alcotest.(check bool) "JSONL = binary" true (from_jsonl = from_bin)

let suite =
  [
    ( "monitor",
      [
        Alcotest.test_case "tenant and shard groups" `Quick test_groups;
        Alcotest.test_case "residual window edges" `Quick test_residual_window;
        Alcotest.test_case "decision chains and verdicts" `Quick test_decision_chains;
        Alcotest.test_case "fold_runs keeps runs apart, skips unknown kinds" `Quick
          test_fold_runs_apart;
        Alcotest.test_case "JSONL = binary" `Slow test_formats;
      ] );
  ]
