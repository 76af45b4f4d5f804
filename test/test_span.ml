(* Tests for the span layer: milestone reconstruction from hand-built
   traces, and the partition property on real simulated runs — phase
   durations tile [issue, complete] exactly and reproduce the latency
   that Request_done records carry. *)

let rec_ at id event = { Sim.Trace.at; id; event }

(* One request, one segment each way, distinct timestamps for all nine
   milestones. *)
let one_request_records =
  [
    rec_ 100 "c0" (Sim.Trace.Req_issued { req = 0; off = 0; len = 10 });
    rec_ 200 "c0" (Sim.Trace.Req_sent { req = 0 });
    rec_ 300 "c0" (Sim.Trace.Segment_sent { seq = 0; len = 10; push = true; retx = false });
    rec_ 400 "s0" (Sim.Trace.Segment_received { seq = 0; fresh = 10 });
    rec_ 500 "s0" (Sim.Trace.Srv_start { req = 0 });
    rec_ 600 "s0" (Sim.Trace.Srv_reply { req = 0; off = 0; len = 5 });
    rec_ 700 "s0" (Sim.Trace.Segment_sent { seq = 0; len = 5; push = true; retx = false });
    rec_ 800 "c0" (Sim.Trace.Segment_received { seq = 0; fresh = 5 });
    rec_ 900 "c0" (Sim.Trace.Req_complete { req = 0 });
  ]

let test_build_one_request () =
  let b = Sim.Span.build one_request_records in
  Alcotest.(check int) "complete" 1 (List.length b.spans);
  Alcotest.(check int) "incomplete" 0 b.incomplete;
  let s = List.hd b.spans in
  Alcotest.(check string) "conn" "c0" s.conn;
  Alcotest.(check int) "req" 0 s.req;
  Alcotest.(check (array int)) "milestones"
    [| 100; 200; 300; 400; 500; 600; 700; 800; 900 |]
    s.milestones;
  Alcotest.(check int) "total" 800 (Sim.Span.total s);
  List.iter
    (fun (ph, d) ->
      Alcotest.(check int) (Sim.Span.phase_name ph) 100 d)
    (Sim.Span.phases s)

let test_build_tenant_tagged () =
  (* Fleet runs tag ids "<tenant>/c0" / "<tenant>/s0"; the default peer
     map must pair them tenant-by-tenant, never across tenants. *)
  let retag tenant (r : Sim.Trace.record) =
    { r with Sim.Trace.id = tenant ^ "/" ^ r.id }
  in
  let records =
    List.map (retag "bare") one_request_records
    @ List.map (retag "vm") one_request_records
  in
  let b = Sim.Span.build records in
  Alcotest.(check int) "one span per tenant" 2 (List.length b.spans);
  Alcotest.(check int) "none incomplete" 0 b.incomplete;
  let conns = List.map (fun (s : Sim.Span.span) -> s.conn) b.spans in
  Alcotest.(check (list string)) "spans keep tagged conn ids"
    [ "bare/c0"; "vm/c0" ]
    (List.sort compare conns)

let test_tenant_of_id () =
  let check id expect =
    Alcotest.(check (option string)) id expect (Sim.Trace.tenant_of_id id)
  in
  check "bare/c0" (Some "bare");
  check "vm/s3" (Some "vm");
  check "a/b/c" (Some "a");
  check "c0" None;
  check "/c0" None;
  check "" None

let test_build_incomplete () =
  (* Drop the server reply: the request is seen but unresolvable. *)
  let records =
    List.filter
      (fun (r : Sim.Trace.record) ->
        match r.event with Sim.Trace.Srv_reply _ -> false | _ -> true)
      one_request_records
  in
  let b = Sim.Span.build records in
  Alcotest.(check int) "no spans" 0 (List.length b.spans);
  Alcotest.(check int) "incomplete" 1 b.incomplete

let test_build_batched_segment () =
  (* Two requests coalesced into one segment each way (Nagle-style):
     both share the same wire milestones but keep their own issue,
     dequeue and completion times. *)
  let records =
    [
      rec_ 100 "c0" (Sim.Trace.Req_issued { req = 0; off = 0; len = 10 });
      rec_ 110 "c0" (Sim.Trace.Req_issued { req = 1; off = 10; len = 10 });
      rec_ 120 "c0" (Sim.Trace.Req_sent { req = 0 });
      rec_ 130 "c0" (Sim.Trace.Req_sent { req = 1 });
      rec_ 200 "c0" (Sim.Trace.Segment_sent { seq = 0; len = 20; push = true; retx = false });
      rec_ 300 "s0" (Sim.Trace.Segment_received { seq = 0; fresh = 20 });
      rec_ 310 "s0" (Sim.Trace.Srv_start { req = 0 });
      rec_ 310 "s0" (Sim.Trace.Srv_start { req = 1 });
      rec_ 400 "s0" (Sim.Trace.Srv_reply { req = 0; off = 0; len = 5 });
      rec_ 400 "s0" (Sim.Trace.Srv_reply { req = 1; off = 5; len = 5 });
      rec_ 450 "s0" (Sim.Trace.Segment_sent { seq = 0; len = 10; push = true; retx = false });
      rec_ 500 "c0" (Sim.Trace.Segment_received { seq = 0; fresh = 10 });
      rec_ 510 "c0" (Sim.Trace.Req_complete { req = 0 });
      rec_ 520 "c0" (Sim.Trace.Req_complete { req = 1 });
    ]
  in
  let b = Sim.Span.build records in
  Alcotest.(check int) "both complete" 2 (List.length b.spans);
  match b.spans with
  | [ s0; s1 ] ->
    Alcotest.(check int) "shared tx milestone" 200 s0.milestones.(2);
    Alcotest.(check int) "shared tx milestone (b)" 200 s1.milestones.(2);
    Alcotest.(check int) "own issue" 110 s1.milestones.(0);
    Alcotest.(check int) "own completion" 520 s1.milestones.(8)
  | _ -> Alcotest.fail "expected two spans"

let test_breakdown_empty () =
  Alcotest.(check int) "no rows on empty" 0
    (List.length (Sim.Span.breakdown []))

(* {1 The partition property on real runs} *)

let observed_run ~batching ~rate =
  let base =
    Loadgen.Runner.default_config ~rate_rps:rate ~batching
  in
  Loadgen.Runner.run
    {
      base with
      warmup = Sim.Time.ms 5;
      duration = Sim.Time.ms 25;
      observe =
        Some { Loadgen.Observe.default_config with trace_capacity = 1 lsl 19 };
    }

(* For every completed request: the eight phases partition the span
   (non-negative durations, milestones monotone, durations telescoping
   to the total), and the multiset of span latencies equals the
   multiset of latencies carried by Request_done records — the span
   reconstruction invents or loses nothing. *)
let prop_spans_partition_latency =
  QCheck.Test.make ~count:4 ~name:"span phases partition Request_done latency"
    QCheck.(int_range 0 1000)
    (fun salt ->
      let batching =
        if salt mod 2 = 0 then Loadgen.Runner.Static_on
        else Loadgen.Runner.Static_off
      in
      let r = observed_run ~batching ~rate:(40e3 +. float_of_int salt) in
      match r.observability with
      | None -> false
      | Some o ->
        if o.dropped_records > 0 then false
        else begin
          let b = Sim.Span.build o.records in
          let partition_ok =
            List.for_all
              (fun (s : Sim.Span.span) ->
                let ms = s.milestones in
                let monotone = ref true in
                for i = 0 to 7 do
                  if ms.(i + 1) < ms.(i) then monotone := false
                done;
                let sum =
                  List.fold_left (fun acc (_, d) -> acc + d) 0
                    (Sim.Span.phases s)
                in
                !monotone && sum = Sim.Span.total s)
              b.spans
          in
          let done_lats =
            List.filter_map
              (fun (rc : Sim.Trace.record) ->
                match rc.event with
                | Sim.Trace.Request_done { latency_us } -> Some latency_us
                | _ -> None)
              o.records
            |> List.sort Stdlib.compare
          in
          let span_lats =
            List.map Sim.Span.latency_us b.spans |> List.sort Stdlib.compare
          in
          (* Spans also cover requests completed during warmup (no
             Request_done is logged for those) and miss requests still
             in flight at the end, so compare the common core: every
             Request_done latency must appear among span latencies. *)
          let rec covered = function
            | [], _ -> true
            | _ :: _, [] -> false
            | (d : float) :: ds, s :: ss ->
              if s < d then covered (d :: ds, ss)
              else if s = d then covered (ds, ss)
              else false
          in
          partition_ok
          && List.length b.spans > 100
          && covered (done_lats, span_lats)
        end)

(* The partition property must survive retransmission: on a lossy run
   every completed request's phases still tile [issue, complete] and
   reproduce the Request_done latencies — a retransmitted segment must
   not invent time or detach a request from its wire milestones. *)
let test_spans_partition_on_lossy_run () =
  let base =
    Loadgen.Runner.default_config ~rate_rps:20e3
      ~batching:Loadgen.Runner.Static_off
  in
  let plan =
    Result.get_ok (Fault.Plan.of_string "loss dir=both prob=0.003\n")
  in
  let r =
    Loadgen.Runner.run
      {
        base with
        warmup = Sim.Time.ms 5;
        duration = Sim.Time.ms 60;
        cc = true;
        fault = Some plan;
        observe =
          Some { Loadgen.Observe.default_config with trace_capacity = 1 lsl 19 };
      }
  in
  Alcotest.(check bool) "the plan dropped something" true (r.link_dropped > 0);
  match r.observability with
  | None -> Alcotest.fail "no observability output"
  | Some o ->
    Alcotest.(check int) "ring did not overflow" 0 o.dropped_records;
    let b = Sim.Span.build o.records in
    Alcotest.(check bool) "spans reconstructed" true (List.length b.spans > 100);
    List.iter
      (fun (s : Sim.Span.span) ->
        let ms = s.milestones in
        for i = 0 to 7 do
          if ms.(i + 1) < ms.(i) then
            Alcotest.failf "milestones not monotone for req %d" s.req
        done;
        let sum =
          List.fold_left (fun acc (_, d) -> acc + d) 0 (Sim.Span.phases s)
        in
        if sum <> Sim.Span.total s then
          Alcotest.failf "phases do not partition req %d: %d <> %d" s.req sum
            (Sim.Span.total s))
      b.spans;
    let done_lats =
      List.filter_map
        (fun (rc : Sim.Trace.record) ->
          match rc.event with
          | Sim.Trace.Request_done { latency_us } -> Some latency_us
          | _ -> None)
        o.records
      |> List.sort Stdlib.compare
    in
    let span_lats =
      List.map Sim.Span.latency_us b.spans |> List.sort Stdlib.compare
    in
    let rec covered = function
      | [], _ -> true
      | _ :: _, [] -> false
      | (d : float) :: ds, s :: ss ->
        if s < d then covered (d :: ds, ss)
        else if s = d then covered (ds, ss)
        else false
    in
    Alcotest.(check bool) "span latencies cover Request_done" true
      (covered (done_lats, span_lats))

(* {1 Streaming reconstruction} *)

let spans_sorted spans =
  List.sort
    (fun (a : Sim.Span.span) (b : Sim.Span.span) ->
      match compare a.conn b.conn with 0 -> compare a.req b.req | c -> c)
    spans

(* Feed every record through the incremental fold and compare against
   the batch builder: same spans (up to completion-vs-connection order),
   same incomplete count, milestone-for-milestone.  [stream] hands the
   fold its records, by default [records] themselves. *)
let check_streaming_equals_build ~msg ?stream records =
  let stream = Option.value stream ~default:(fun f -> List.iter f records) in
  let batch = Sim.Span.build records in
  let st = Sim.Span.Streaming.create () in
  let streamed_rev = ref [] in
  stream (fun r ->
      match Sim.Span.Streaming.feed st r with
      | Some sp -> streamed_rev := sp :: !streamed_rev
      | None -> ());
  let streamed = List.rev !streamed_rev in
  Alcotest.(check int)
    (msg ^ ": resolved count")
    (List.length batch.spans) (List.length streamed);
  Alcotest.(check int)
    (msg ^ ": resolved counter")
    (List.length streamed)
    (Sim.Span.Streaming.resolved st);
  Alcotest.(check int)
    (msg ^ ": incomplete")
    batch.incomplete
    (Sim.Span.Streaming.incomplete st);
  List.iter2
    (fun (a : Sim.Span.span) (b : Sim.Span.span) ->
      if not (a.conn = b.conn && a.req = b.req && a.milestones = b.milestones)
      then
        Alcotest.failf "%s: span %s/%d differs between batch and streaming" msg
          a.conn a.req)
    (spans_sorted batch.spans) (spans_sorted streamed);
  streamed

let test_streaming_one_request () =
  let streamed =
    check_streaming_equals_build ~msg:"one request" one_request_records
  in
  (match streamed with
  | [ s ] ->
    Alcotest.(check (array int)) "milestones"
      [| 100; 200; 300; 400; 500; 600; 700; 800; 900 |]
      s.milestones
  | l -> Alcotest.failf "expected one span, got %d" (List.length l));
  (* an unresolvable request (reply dropped) counts as incomplete *)
  let no_reply =
    List.filter
      (fun (r : Sim.Trace.record) ->
        match r.event with Sim.Trace.Srv_reply _ -> false | _ -> true)
      one_request_records
  in
  ignore (check_streaming_equals_build ~msg:"missing reply" no_reply)

(* The records of the i-th back-to-back request on c0/s0: each command
   extends the client-to-server stream by 10 bytes and each reply the
   return stream by 5, one segment each way, all milestones distinct. *)
let nth_request_records i =
  let t k = (i * 1000) + k in
  [
    rec_ (t 100) "c0" (Sim.Trace.Req_issued { req = i; off = i * 10; len = 10 });
    rec_ (t 200) "c0" (Sim.Trace.Req_sent { req = i });
    rec_ (t 300) "c0"
      (Sim.Trace.Segment_sent { seq = i * 10; len = 10; push = true; retx = false });
    rec_ (t 400) "s0" (Sim.Trace.Segment_received { seq = i * 10; fresh = 10 });
    rec_ (t 500) "s0" (Sim.Trace.Srv_start { req = i });
    rec_ (t 600) "s0" (Sim.Trace.Srv_reply { req = i; off = i * 5; len = 5 });
    rec_ (t 700) "s0"
      (Sim.Trace.Segment_sent { seq = i * 5; len = 5; push = true; retx = false });
    rec_ (t 800) "c0" (Sim.Trace.Segment_received { seq = i * 5; fresh = 5 });
    rec_ (t 900) "c0" (Sim.Trace.Req_complete { req = i });
  ]

let test_streaming_retires_state () =
  (* After a resolved request nothing about it should remain tracked:
     the whole point of the streaming fold is that memory follows
     in-flight requests, not trace length. *)
  let st = Sim.Span.Streaming.create () in
  List.iter (fun r -> ignore (Sim.Span.Streaming.feed st r)) (nth_request_records 0);
  Alcotest.(check int) "no pending requests" 0 (Sim.Span.Streaming.pending st);
  let after_one = Sim.Span.Streaming.live_state st in
  for i = 1 to 50 do
    List.iter (fun r -> ignore (Sim.Span.Streaming.feed st r)) (nth_request_records i)
  done;
  Alcotest.(check int) "all resolved" 51 (Sim.Span.Streaming.resolved st);
  Alcotest.(check int) "none pending" 0 (Sim.Span.Streaming.pending st);
  Alcotest.(check bool)
    (Printf.sprintf "live state flat across 50 more requests (%d vs %d)"
       (Sim.Span.Streaming.live_state st) after_one)
    true
    (Sim.Span.Streaming.live_state st <= after_one)

(* A 40 kRPS, nagle-on run of [workload] for 5 ms of warmup and [ms] ms
   measured. *)
let run_config ?(workload = Loadgen.Workload.paper_set_only) ~ms () =
  let base =
    Loadgen.Runner.default_config ~rate_rps:40e3 ~batching:Loadgen.Runner.Static_on
  in
  { base with warmup = Sim.Time.ms 5; duration = Sim.Time.ms ms; workload }

(* Runs [cfg] with every trace record streamed to a binary file at
   [path]. *)
let run_to_binary_file ~path cfg =
  let oc = open_out_bin path in
  let w = Sim.Trace.Binary.writer oc in
  let observe =
    { Loadgen.Observe.default_config with trace_sink = Some (Sim.Trace.Binary.write w) }
  in
  let r = Loadgen.Runner.run { cfg with Loadgen.Runner.observe = Some observe } in
  Sim.Trace.Binary.finish w;
  close_out oc;
  r

let fold_trace_file path f =
  match Sim.Trace.fold_file path ~init:() ~f:(fun () _run r -> f r) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fold_file %s: %s" path e

(* The file a binary sink writes, folded back through the streaming
   reconstruction, gives what [build] gives over the whole loaded file;
   and the sink changes no result of the run. *)
let test_streaming_matches_build_on_run () =
  let cfg = run_config ~ms:25 () in
  let path = Filename.temp_file "span_clean" ".bin" in
  let traced = run_to_binary_file ~path cfg in
  Alcotest.(check bool) "binary sink does not perturb the run" true
    ({ traced with observability = None } = Loadgen.Runner.run cfg);
  let records =
    match Sim.Trace.Binary.load_file path with
    | Ok loaded -> List.map snd loaded
    | Error e -> Alcotest.failf "load_file: %s" e
  in
  let streamed =
    check_streaming_equals_build ~msg:"clean run" ~stream:(fold_trace_file path) records
  in
  Sys.remove path;
  Alcotest.(check bool) "spans reconstructed" true (List.length streamed > 100)

(* The streaming fold's peak state follows in-flight requests, not
   trace length: a run ten times longer peaks within a few entries of
   the short one. *)
let test_streaming_peak_independent_of_length () =
  let peak ms =
    let path = Filename.temp_file "span_peak" ".bin" in
    ignore
      (run_to_binary_file ~path
         (run_config ~workload:Loadgen.Workload.small_requests ~ms ()));
    let st = Sim.Span.Streaming.create () and peak = ref 0 and resolved = ref 0 in
    fold_trace_file path (fun r ->
        if Option.is_some (Sim.Span.Streaming.feed st r) then incr resolved;
        peak := max !peak (Sim.Span.Streaming.live_state st));
    Sys.remove path;
    (!peak, !resolved)
  in
  (* 15 ms and 150 ms of traffic, warmup included *)
  let short_peak, short_n = peak 10 and long_peak, long_n = peak 145 in
  Alcotest.(check bool)
    (Printf.sprintf "long run resolves ten times the spans (%d vs %d)" long_n short_n)
    true
    (long_n >= 9 * short_n);
  Alcotest.(check bool)
    (Printf.sprintf "peak live state %d at %d spans vs %d at %d" long_peak long_n short_peak
       short_n)
    true
    (abs (long_peak - short_peak) <= 8)

let test_streaming_matches_build_on_lossy_run () =
  let base =
    Loadgen.Runner.default_config ~rate_rps:20e3
      ~batching:Loadgen.Runner.Static_off
  in
  let plan =
    Result.get_ok (Fault.Plan.of_string "loss dir=both prob=0.003\n")
  in
  let r =
    Loadgen.Runner.run
      {
        base with
        warmup = Sim.Time.ms 5;
        duration = Sim.Time.ms 60;
        cc = true;
        fault = Some plan;
        observe =
          Some { Loadgen.Observe.default_config with trace_capacity = 1 lsl 19 };
      }
  in
  Alcotest.(check bool) "the plan dropped something" true (r.link_dropped > 0);
  match r.observability with
  | None -> Alcotest.fail "no observability output"
  | Some o ->
    Alcotest.(check int) "ring did not overflow" 0 o.dropped_records;
    let streamed = check_streaming_equals_build ~msg:"lossy run" o.records in
    Alcotest.(check bool) "spans reconstructed" true (List.length streamed > 100)

let suite =
  [
    ( "span",
      [
        Alcotest.test_case "build: one request" `Quick test_build_one_request;
        Alcotest.test_case "build: incomplete request" `Quick test_build_incomplete;
        Alcotest.test_case "build: batched segments shared" `Quick
          test_build_batched_segment;
        Alcotest.test_case "build: tenant-tagged ids pair per tenant" `Quick
          test_build_tenant_tagged;
        Alcotest.test_case "tenant_of_id" `Quick test_tenant_of_id;
        Alcotest.test_case "breakdown: empty" `Quick test_breakdown_empty;
        QCheck_alcotest.to_alcotest ~long:true prop_spans_partition_latency;
        Alcotest.test_case "partition survives lossy retransmission" `Quick
          test_spans_partition_on_lossy_run;
      ] );
    ( "span.streaming",
      [
        Alcotest.test_case "matches build: one request" `Quick
          test_streaming_one_request;
        Alcotest.test_case "retires state at completion" `Quick
          test_streaming_retires_state;
        Alcotest.test_case "matches build: clean run" `Quick
          test_streaming_matches_build_on_run;
        Alcotest.test_case "peak state independent of trace length" `Quick
          test_streaming_peak_independent_of_length;
        Alcotest.test_case "matches build: lossy run" `Quick
          test_streaming_matches_build_on_lossy_run;
      ] );
  ]
