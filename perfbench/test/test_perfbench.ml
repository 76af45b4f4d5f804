(* Tests of the benchmark's own code: the output oracle, the metric
   catalogue and the layer-table arithmetic. *)

open Perfbench
module R = Loadgen.Runner
module F = Loadgen.Fleet

(* Small versions of the workload shapes, so the tests stay quick. *)
let small_single =
  Workloads.Single
    {
      (R.default_config ~rate_rps:50e3 ~batching:(R.Dynamic R.default_dynamic)) with
      R.seed = 3;
      warmup = Sim.Time.ms 2;
      duration = Sim.Time.ms 20;
      workload = Loadgen.Workload.small_requests;
    }

let small_fleet =
  let tenants =
    List.init 2 (fun i ->
        { (F.default_tenant ~name:(Printf.sprintf "t%d" i) ~rate_rps:10e3) with F.n_conns = 4 })
  in
  Workloads.Fleet
    {
      (F.default_config ~tenants) with
      F.seed = 5;
      cores = 2;
      lb = Shard.Lb.Least_loaded;
      warmup = Sim.Time.ms 2;
      duration = Sim.Time.ms 10;
    }

let plain = List.hd Workloads.all
let run sim = fst (Bench.simulate plain sim)

let digest_stable sim () =
  let a = Oracle.digest (run sim) and b = Oracle.digest (run sim) in
  Alcotest.(check string) "same digest on a second run" a b

let traced_digest_matches sim () =
  let count = Counting.create () in
  let traced, _ = Bench.simulate plain ~count sim in
  Alcotest.(check bool) "the counting sink saw records" true (count.records > 0);
  Alcotest.(check string) "traced run digest" (Oracle.digest (run sim)) (Oracle.digest traced)

let digest_sees_scalars () =
  match run small_single with
  | Workloads.Single_r r ->
    let moved = Workloads.Single_r { r with measured_p99_us = Float.succ r.measured_p99_us } in
    Alcotest.(check bool) "one ulp of p99 changes the digest" false
      (Oracle.digest (Workloads.Single_r r) = Oracle.digest moved)
  | Workloads.Fleet_r _ -> Alcotest.fail "expected a single run"

let closure_holds sim () =
  let c = Oracle.closure (Oracle.rows (run sim)) in
  Alcotest.(check int) "nothing lost" 0 c.lost;
  Alcotest.(check (list string)) "no broken rows" [] c.broken;
  Alcotest.(check bool) "requests issued" true (c.issued > 0)

let closure_catches_lost_single () =
  match run small_single with
  | Workloads.Single_r r ->
    let c = Oracle.closure (Oracle.rows (Workloads.Single_r { r with issued = r.issued + 1 })) in
    Alcotest.(check int) "one lost request" 1 c.lost;
    Alcotest.(check (list string)) "the run row is broken" [ "run" ] c.broken
  | Workloads.Fleet_r _ -> Alcotest.fail "expected a single run"

let closure_catches_lost_shard () =
  match run small_fleet with
  | Workloads.Fleet_r r ->
    let shards =
      List.map
        (fun (s : F.shard_result) ->
          if s.sh_index = 1 then { s with sh_completed_total = s.sh_completed_total - 1 } else s)
        r.shards
    in
    let c = Oracle.closure (Oracle.rows (Workloads.Fleet_r { r with shards })) in
    Alcotest.(check int) "one lost request" 1 c.lost;
    Alcotest.(check (list string)) "shard s1 is broken" [ "shard s1" ] c.broken
  | Workloads.Single_r _ -> Alcotest.fail "expected a fleet run"

let reference_parsing () =
  let path = "reference_parsing.txt" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "set64_dyn 42 0123abcd\n\nbad line\nset16k_off 7 ffff\n");
  let table = Oracle.load_reference path in
  Sys.remove path;
  Alcotest.(check (option string)) "known seed" (Some "0123abcd")
    (List.assoc_opt ("set64_dyn", 42) table);
  Alcotest.(check (option string)) "unknown seed" None
    (List.assoc_opt ("set64_dyn", 7) table)

let name_ok name =
  name <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       name

let metric_names () =
  let all = Bench.end_to_end @ Bench.per_layer in
  List.iter
    (fun (mt : Bench.metric) ->
      if not (name_ok mt.name && String.length mt.name <= 64) then
        Alcotest.failf "bad metric name %S" mt.name;
      if not (name_ok mt.unit && String.length mt.unit <= 16) then
        Alcotest.failf "bad unit %S for %s" mt.unit mt.name)
    all;
  let names = List.map (fun (mt : Bench.metric) -> mt.name) all in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun (w : Workloads.t) -> if not (name_ok w.name) then Alcotest.failf "bad workload name %S" w.name)
    Workloads.all

let us_per_req () =
  Alcotest.(check (float 1e-12)) "ops x ns / 1000" 1.0
    (Layers.us_per_req ~ops_per_req:2.5 ~ns_per_op:400.0);
  Alcotest.(check (float 1e-12)) "no ops, no time" 0.0
    (Layers.us_per_req ~ops_per_req:0.0 ~ns_per_op:123.0);
  let row name phase ops ns =
    let layer = { (List.find (fun (l : Layers.layer) -> l.name = name) Layers.layers) with phase } in
    {
      Layers.layer;
      cost = { ns_per_op = ns; words_per_op = 0.0 };
      ops;
      us = Layers.us_per_req ~ops_per_req:ops ~ns_per_op:ns;
    }
  in
  let rows =
    [
      row "sim.engine" Layers.Run 3.0 100.0;
      row "tcp.conn" Layers.Run 0.5 1000.0;
      row "shard.lb" Layers.Setup 10.0 1000.0;
    ]
  in
  (* 0.3 + 0.5 us of run-phase work against 2 us per request; the
     set-up layer is left out. *)
  Alcotest.(check (float 1e-12)) "attributed share" 0.4
    (Layers.attributed_share rows ~wall_us_per_req:2.0)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let json_line () =
  let r =
    {
      Bench.correct = true;
      attempted = 10;
      failed = 0;
      values = List.map (fun (mt : Bench.metric) -> (mt.name, 1.5)) Bench.end_to_end;
      table = [];
    }
  in
  let line = Bench.json_line r Bench.end_to_end in
  Alcotest.(check bool) "opens with the verdict" true
    (String.starts_with ~prefix:"{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {" line);
  Alcotest.(check bool) "carries setup_s with its unit" true
    (contains line "\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}");
  Alcotest.(check bool) "closes the object" true (String.ends_with ~suffix:"}}" line)

let () =
  Alcotest.run "perfbench"
    [
      ( "oracle",
        [
          Alcotest.test_case "digest stable, single run" `Quick (digest_stable small_single);
          Alcotest.test_case "digest stable, sharded fleet" `Quick (digest_stable small_fleet);
          Alcotest.test_case "traced digest equals untraced, single" `Quick
            (traced_digest_matches small_single);
          Alcotest.test_case "traced digest equals untraced, fleet" `Quick
            (traced_digest_matches small_fleet);
          Alcotest.test_case "digest sees every float bit" `Quick digest_sees_scalars;
          Alcotest.test_case "closure holds, single" `Quick (closure_holds small_single);
          Alcotest.test_case "closure holds, fleet" `Quick (closure_holds small_fleet);
          Alcotest.test_case "closure catches a lost request" `Quick closure_catches_lost_single;
          Alcotest.test_case "closure catches a lost shard request" `Quick closure_catches_lost_shard;
          Alcotest.test_case "reference file parsing" `Quick reference_parsing;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "names match [A-Za-z0-9_.-]+" `Quick metric_names;
          Alcotest.test_case "us_per_req arithmetic" `Quick us_per_req;
          Alcotest.test_case "json line" `Quick json_line;
        ] );
    ]
