(* Tests for trace-driven workloads: format roundtrip, validation,
   synthesis, and runner replay. *)

let us = Sim.Time.us

let sample_entries =
  [
    { Loadgen.Trace.at = us 100; cmd = Kv.Command.Set { key = "a"; value = String.make 64 'v'; ttl = None } };
    { Loadgen.Trace.at = us 250; cmd = Kv.Command.Get "a" };
    { Loadgen.Trace.at = us 250; cmd = Kv.Command.Get "a" };
    { Loadgen.Trace.at = us 900; cmd = Kv.Command.Set { key = "b"; value = String.make 128 'v'; ttl = None } };
  ]

let entries_equal (a : Loadgen.Trace.entry) (b : Loadgen.Trace.entry) =
  a.at = b.at
  &&
  match (a.cmd, b.cmd) with
  | Kv.Command.Set x, Kv.Command.Set y ->
    x.key = y.key && String.length x.value = String.length y.value
  | Kv.Command.Get x, Kv.Command.Get y -> x = y
  | _ -> false

let test_roundtrip () =
  match Loadgen.Trace.of_string (Loadgen.Trace.to_string sample_entries) with
  | Ok parsed ->
    Alcotest.(check int) "count" 4 (List.length parsed);
    Alcotest.(check bool) "entries equal" true
      (List.for_all2 entries_equal sample_entries parsed)
  | Error e -> Alcotest.fail e

let test_comments_and_blanks () =
  let text = "# header\n\n100 SET k 64\n\n# mid comment\n200 GET k\n" in
  match Loadgen.Trace.of_string text with
  | Ok entries -> Alcotest.(check int) "two entries" 2 (List.length entries)
  | Error e -> Alcotest.fail e

let test_rejects_bad_lines () =
  let cases =
    [
      "100 SET k";  (* missing size *)
      "abc GET k";  (* bad timestamp *)
      "100 DEL k";  (* unsupported op *)
      "100 SET k 0";  (* non-positive size *)
    ]
  in
  List.iter
    (fun line ->
      match Loadgen.Trace.of_string line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" line)
    cases

let test_rejects_time_regression () =
  match Loadgen.Trace.of_string "200 GET a\n100 GET b\n" with
  | Error msg -> Alcotest.(check bool) "mentions line 2" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "accepted regressing timestamps"

let test_file_roundtrip () =
  let path = Filename.temp_file "e2ebatch" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Loadgen.Trace.save_file path sample_entries with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      match Sim.Directive.file Loadgen.Trace.of_string path with
      | Ok parsed -> Alcotest.(check int) "count" 4 (List.length parsed)
      | Error e -> Alcotest.fail e)

let test_synthesize_rate_and_order () =
  let rng = Sim.Rng.create ~seed:31 in
  let entries =
    Loadgen.Trace.synthesize ~workload:Loadgen.Workload.small_requests ~rate_rps:50e3
      ~duration:(Sim.Time.ms 100) ~rng
  in
  let n = Loadgen.Trace.count entries in
  (* 50k * 0.1s = ~5000 requests *)
  Alcotest.(check bool) "rate respected" true (n > 4_500 && n < 5_500);
  let sorted = ref true in
  ignore
    (List.fold_left
       (fun prev (e : Loadgen.Trace.entry) ->
         if Sim.Time.compare e.at prev < 0 then sorted := false;
         e.at)
       Sim.Time.zero entries);
  Alcotest.(check bool) "monotone" true !sorted;
  Alcotest.(check bool) "duration bounded" true
    (Loadgen.Trace.duration entries <= Sim.Time.ms 100)

let test_runner_replays_trace () =
  let rng = Sim.Rng.create ~seed:33 in
  let workload = Loadgen.Workload.small_requests in
  let trace =
    Loadgen.Trace.synthesize ~workload ~rate_rps:20e3 ~duration:(Sim.Time.ms 80) ~rng
  in
  let base = Loadgen.Runner.default_config ~rate_rps:1.0 ~batching:Loadgen.Runner.Static_off in
  let cfg =
    { base with warmup = Sim.Time.ms 20; duration = Sim.Time.ms 60; workload;
      trace = Some trace }
  in
  let r = Loadgen.Runner.run cfg in
  (* every post-warmup trace entry must complete *)
  let expected =
    List.length
      (List.filter
         (fun (e : Loadgen.Trace.entry) ->
           Sim.Time.compare e.at (Sim.Time.ms 20) > 0
           && Sim.Time.compare e.at (Sim.Time.ms 80) <= 0)
         trace)
  in
  Alcotest.(check bool) "close to trace cardinality" true
    (abs (r.completed - expected) < 20);
  (* replays are deterministic *)
  let r2 = Loadgen.Runner.run cfg in
  Alcotest.(check int) "deterministic replay" r.completed r2.completed;
  Alcotest.(check (float 1e-9)) "same latency" r.measured_mean_us r2.measured_mean_us

let suite =
  [
    ( "loadgen.trace",
      [
        Alcotest.test_case "string roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
        Alcotest.test_case "bad lines rejected" `Quick test_rejects_bad_lines;
        Alcotest.test_case "time regression rejected" `Quick test_rejects_time_regression;
        Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
        Alcotest.test_case "synthesis rate/order" `Quick test_synthesize_rate_and_order;
        Alcotest.test_case "runner replays a trace" `Slow test_runner_replays_trace;
      ] );
  ]
