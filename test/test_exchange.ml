(* Tests for the metadata exchange (wire codec, unwrapping, scheduling)
   and the latency-combination formula of §3.2. *)

let us = Sim.Time.us

let share time total integral : E2e.Queue_state.share = { time; total; integral }

let triple a b c : E2e.Exchange.triple = { unacked = a; unread = b; ackdelay = c }

let check_share what (a : E2e.Queue_state.share) (b : E2e.Queue_state.share) =
  Alcotest.(check int) (what ^ " time") (Sim.Time.to_ns a.time) (Sim.Time.to_ns b.time);
  Alcotest.(check int) (what ^ " total") a.total b.total;
  Alcotest.(check (float 1e3)) (what ^ " integral") a.integral b.integral

let test_wire_size () =
  let t = triple (share (us 1) 2 3e3) (share (us 4) 5 6e3) (share (us 7) 8 9e3) in
  Alcotest.(check int) "36 bytes" E2e.Exchange.wire_size
    (String.length (E2e.Exchange.encode t));
  Alcotest.(check int) "declared" 36 E2e.Exchange.wire_size

let test_roundtrip () =
  let t =
    triple
      (share (us 1_000) 123 456e3)
      (share (us 1_000) 789 1_000e3)
      (share (us 1_000) 42 7e3)
  in
  match E2e.Exchange.decode (E2e.Exchange.encode t) with
  | Error e -> Alcotest.fail e
  | Ok t' ->
    check_share "unacked" t.unacked t'.unacked;
    check_share "unread" t.unread t'.unread;
    check_share "ackdelay" t.ackdelay t'.ackdelay

let test_decode_bad_length () =
  match E2e.Exchange.decode "short" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted short payload"

let test_unwrap_after_overflow () =
  (* A counter that passed 2^32 on the wire is reconstructed from the
     previous full-width value. *)
  let wide = (1 lsl 32) + 500 in
  let prev_full = triple (share (us ((1 lsl 32) - 100)) ((1 lsl 32) - 10) 0.0)
      (share 0 0 0.0) (share 0 0 0.0)
  in
  let cur_wire =
    (* what the 32-bit wire would carry after wrapping *)
    triple
      (share (us (wide land 0xFFFFFFFF)) ((1 lsl 32) + 90 land 0xFFFFFFFF) 0.0)
      (share 0 0 0.0) (share 0 0 0.0)
  in
  let un = E2e.Exchange.unwrap ~prev:prev_full ~cur:cur_wire in
  Alcotest.(check int) "time unwrapped" wide (Sim.Time.to_ns un.unacked.time / 1_000);
  Alcotest.(check int) "total unwrapped" ((1 lsl 32) + 90) un.unacked.total

let test_wire_roundtrip_preserves_deltas_across_wrap () =
  (* Encode two snapshots straddling the 32-bit boundary; after
     unwrapping, Algorithm 2 must see the true deltas. *)
  let t0 = triple (share (us 4294967000) 4294967000 4294967000e3)
      (share (us 4294967000) 0 0.0) (share (us 4294967000) 0 0.0)
  in
  let t1 = triple (share (us 4294968000) 4294968000 4294968000e3)
      (share (us 4294968000) 0 0.0) (share (us 4294968000) 0 0.0)
  in
  let w0 = Result.get_ok (E2e.Exchange.decode (E2e.Exchange.encode t0)) in
  let w1 = Result.get_ok (E2e.Exchange.decode (E2e.Exchange.encode t1)) in
  let u0 = E2e.Exchange.unwrap ~prev:t0 ~cur:w0 in
  let u1 = E2e.Exchange.unwrap ~prev:u0 ~cur:w1 in
  Alcotest.(check int) "delta total" 1000 (u1.unacked.total - u0.unacked.total);
  Alcotest.(check int) "delta time us" 1000
    ((Sim.Time.to_ns u1.unacked.time - Sim.Time.to_ns u0.unacked.time) / 1000)

(* [Exchange.due] is pure: the socket keeps [last_sent] and [requested]
   and updates them when it attaches a share (test_socket.ml checks that
   bookkeeping through a real connection). *)
let due policy ?(last_sent = -1) ?(requested = false) now =
  E2e.Exchange.due policy ~last_sent ~requested ~now

let test_scheduler_every_segment () =
  let p = E2e.Exchange.Every_segment in
  Alcotest.(check bool) "always" true (due p 0);
  Alcotest.(check bool) "always again" true (due p ~last_sent:0 0)

let test_scheduler_periodic () =
  let p = E2e.Exchange.Periodic (us 100) in
  Alcotest.(check bool) "first send attaches" true (due p 0);
  Alcotest.(check bool) "too soon" false (due p ~last_sent:0 (us 50));
  Alcotest.(check bool) "after interval" true (due p ~last_sent:0 (us 100));
  Alcotest.(check bool) "interval restarts" false (due p ~last_sent:(us 100) (us 150))

let test_scheduler_on_demand () =
  let p = E2e.Exchange.On_demand in
  Alcotest.(check bool) "nothing requested" false (due p 0);
  Alcotest.(check bool) "requested" true (due p ~requested:true 0);
  Alcotest.(check bool) "consumed" false (due p ~last_sent:0 0)

(* {1 Latency combination (§3.2)} *)

let comp ?unacked ?unread ?ackdelay () : E2e.Latency.components =
  { unacked; unread; ackdelay }

let test_combine_formula () =
  (* L = unacked_l - ackdelay_r + unread_l + unread_r *)
  let local = comp ~unacked:100.0 ~unread:20.0 ~ackdelay:5.0 () in
  let remote = comp ~unacked:70.0 ~unread:30.0 ~ackdelay:40.0 () in
  match E2e.Latency.combine ~local ~remote with
  | Some l -> Alcotest.(check (float 1e-9)) "formula" 110.0 l
  | None -> Alcotest.fail "expected estimate"

let test_combine_requires_local_unacked () =
  let local = comp ~unread:20.0 () in
  let remote = comp ~unread:30.0 ~ackdelay:5.0 () in
  Alcotest.(check bool) "missing unacked" true
    (E2e.Latency.combine ~local ~remote = None)

let test_combine_clamps_negative () =
  let local = comp ~unacked:10.0 () in
  let remote = comp ~ackdelay:50.0 () in
  match E2e.Latency.combine ~local ~remote with
  | Some l -> Alcotest.(check (float 1e-9)) "clamped" 0.0 l
  | None -> Alcotest.fail "expected estimate"

let test_combine_missing_terms_default_zero () =
  let local = comp ~unacked:100.0 () in
  let remote = comp () in
  match E2e.Latency.combine ~local ~remote with
  | Some l -> Alcotest.(check (float 1e-9)) "just unacked" 100.0 l
  | None -> Alcotest.fail "expected estimate"

let test_reconcile_max () =
  Alcotest.(check (option (float 1e-9))) "max" (Some 5.0)
    (E2e.Latency.reconcile (Some 3.0) (Some 5.0));
  Alcotest.(check (option (float 1e-9))) "one side" (Some 3.0)
    (E2e.Latency.reconcile (Some 3.0) None);
  Alcotest.(check (option (float 1e-9))) "none" None (E2e.Latency.reconcile None None)

(* {1 Estimator} *)

let test_estimator_basic_flow () =
  (* A message spends 30us unacked locally; remote shares show 10us of
     unread delay; combined estimate = 30 + 10. *)
  let e = E2e.Estimator.create ~at:0 in
  E2e.Estimator.track_unacked e ~at:0 1;
  E2e.Estimator.track_unacked e ~at:(us 30) (-1);
  (* remote: one message sat unread for 10us within the same window *)
  let r0 : E2e.Exchange.triple =
    {
      unacked = share 0 0 0.0;
      unread = share 0 0 0.0;
      ackdelay = share 0 0 0.0;
    }
  in
  let r1 : E2e.Exchange.triple =
    {
      unacked = share (us 100) 0 0.0;
      unread = share (us 100) 1 10_000e3 (* 1 departure, 10us*1000... *);
      ackdelay = share (us 100) 0 0.0;
    }
  in
  (* integral units: item-ns; one item for 10us = 10_000 item-ns *)
  let r1 = { r1 with unread = share (us 100) 1 10_000.0 } in
  E2e.Estimator.ingest_remote e ~at:(us 100) r0;
  E2e.Estimator.ingest_remote e ~at:(us 100) r1;
  match E2e.Estimator.estimate e ~at:(us 100) with
  | None -> Alcotest.fail "expected estimate"
  | Some est -> (
    match est.latency_local_ns with
    | Some l -> Alcotest.(check (float 1e-6)) "30us + 10us" 40_000.0 l
    | None -> Alcotest.fail "expected local latency")

let test_estimator_window_advances () =
  let e = E2e.Estimator.create ~at:0 in
  E2e.Estimator.track_unacked e ~at:0 1;
  E2e.Estimator.track_unacked e ~at:(us 10) (-1);
  ignore (E2e.Estimator.estimate e ~at:(us 20));
  (* New window has no departures: no latency estimate. *)
  match E2e.Estimator.estimate e ~at:(us 40) with
  | Some est -> Alcotest.(check bool) "empty window" true (est.latency_ns = None)
  | None -> Alcotest.fail "expected a window"

let test_estimator_peek_does_not_advance () =
  let e = E2e.Estimator.create ~at:0 in
  E2e.Estimator.track_unacked e ~at:0 1;
  E2e.Estimator.track_unacked e ~at:(us 10) (-1);
  ignore (E2e.Estimator.peek_estimate e ~at:(us 20));
  match E2e.Estimator.peek_estimate e ~at:(us 20) with
  | Some est -> Alcotest.(check bool) "still has latency" true (est.latency_ns <> None)
  | None -> Alcotest.fail "expected estimate"

(* Regression (baseline pinning): shares ingested before the first
   [estimate] must NOT slide the remote baseline.  The first share
   anchors the remote window exactly as [local_prev] anchors the local
   one at creation, so both vantage points cover creation-to-now until
   the first estimate; after an [estimate] the baseline advances to the
   latest share. *)
let test_estimator_remote_baseline_pinned () =
  let e = E2e.Estimator.create ~at:0 in
  let mk at total =
    triple (share at total (float_of_int (total * 100))) (share at 0 0.0)
      (share at 0 0.0)
  in
  let s1 = mk 0 1 and s2 = mk (us 10) 2 and s3 = mk (us 20) 3 in
  E2e.Estimator.ingest_remote e ~at:0 s1;
  E2e.Estimator.ingest_remote e ~at:(us 10) s2;
  E2e.Estimator.ingest_remote e ~at:(us 20) s3;
  (match E2e.Estimator.remote_window e with
  | Some (prev, cur) ->
    Alcotest.(check bool) "baseline pinned to first share" true (prev = s1);
    Alcotest.(check bool) "latest is third share" true (cur = s3)
  | None -> Alcotest.fail "expected a remote window");
  E2e.Estimator.track_unacked e ~at:0 1;
  E2e.Estimator.track_unacked e ~at:(us 10) (-1);
  (match E2e.Estimator.estimate e ~at:(us 30) with
  | Some _ -> ()
  | None -> Alcotest.fail "expected an estimate");
  match E2e.Estimator.remote_window e with
  | Some (prev, _) ->
    Alcotest.(check bool) "baseline advances to latest after estimate" true (prev = s3)
  | None -> Alcotest.fail "expected a remote window after estimate"

let test_estimator_queue_sizes () =
  let e = E2e.Estimator.create ~at:0 in
  E2e.Estimator.track_unacked e ~at:0 3;
  E2e.Estimator.track_unread e ~at:0 2;
  E2e.Estimator.track_ackdelay e ~at:0 1;
  Alcotest.(check int) "unacked" 3 (E2e.Estimator.unacked_size e);
  Alcotest.(check int) "unread" 2 (E2e.Estimator.unread_size e);
  Alcotest.(check int) "ackdelay" 1 (E2e.Estimator.ackdelay_size e)

let test_estimator_throughput () =
  let e = E2e.Estimator.create ~at:0 in
  for i = 0 to 9 do
    E2e.Estimator.track_unacked e ~at:(us (i * 10)) 1;
    E2e.Estimator.track_unacked e ~at:(us ((i * 10) + 5)) (-1)
  done;
  match E2e.Estimator.estimate e ~at:(us 100) with
  | Some est ->
    Alcotest.(check (float 1.0)) "100k msg/s" 100_000.0 est.throughput
  | None -> Alcotest.fail "expected estimate"

(* {1 The triple path and the wire path}

   [Estimator.ingest_remote] is [ingest_wire] of [Exchange.of_triple]
   behind a skew check.  Shares of every kind, drawn relative to the
   last accepted one, must get the same verdict and reject reason and
   leave the same remote window and estimate on both paths. *)

type share_kind = Valid | Skewed | Negative | Non_finite | Future | Regressing

let kind_name = function
  | Valid -> "valid"
  | Skewed -> "skewed"
  | Negative -> "negative"
  | Non_finite -> "non-finite"
  | Future -> "future"
  | Regressing -> "regressing"

(* One step: µs the clock advances, the kind of share, which queue the
   kind's fault hits, and the three totals' and integrals' steps. *)
type step = { dt : int; kind : share_kind; q : int; d_total : int array; d_integral : float array }

let gen_step =
  QCheck.Gen.(
    map
      (fun ((dt, kind, q), (d_total, d_integral)) -> { dt; kind; q; d_total; d_integral })
      (pair
         (triple (0 -- 50)
            (frequency
               [ (4, return Valid); (1, return Skewed); (1, return Negative);
                 (1, return Non_finite); (1, return Future); (1, return Regressing) ])
            (0 -- 2))
         (pair (array_repeat 3 (0 -- 5)) (array_repeat 3 (float_range 0.0 1e5)))))

let arb_steps =
  QCheck.make
    ~print:(fun steps ->
      String.concat " "
        (List.map (fun s -> Printf.sprintf "%s@+%d/q%d" (kind_name s.kind) s.dt s.q) steps))
    QCheck.Gen.(list_size (1 -- 40) gen_step)

(* The share of kind [s.kind] drawn from the last accepted [base] at
   local time [now]. *)
let draw (base : E2e.Exchange.triple) ~now s : E2e.Exchange.triple =
  let valid_time = Stdlib.min now (base.unacked.time + us s.dt) in
  (* a third of the negative and regressing shares are so in time, on
     all three queues (on one, they would be skewed) *)
  let in_time = s.dt mod 3 = 0 in
  let time =
    match s.kind with
    | Negative when in_time -> -1 - s.dt
    | Regressing when in_time -> base.unacked.time - 1
    | Future -> now + 1 + us s.dt
    | _ -> valid_time
  in
  let step i (b : E2e.Queue_state.share) : E2e.Queue_state.share =
    let hit = i = s.q and in_total = s.dt mod 3 = 1 in
    let total = b.total + s.d_total.(i) and integral = b.integral +. s.d_integral.(i) in
    match s.kind with
    | Skewed when hit -> { time = time + 1 + s.dt; total; integral }
    | Negative when hit && in_total -> { time; total = -1 - s.d_total.(i); integral }
    | Negative when hit && not in_time -> { time; total; integral = -1.0 -. s.d_integral.(i) }
    | Non_finite when hit ->
      let bad = [| Float.nan; Float.infinity; Float.neg_infinity |] in
      { time; total; integral = bad.(s.dt mod 3) }
    | Regressing when hit && in_total -> { time; total = b.total - 1; integral }
    | Regressing when hit && not in_time -> { time; total; integral = b.integral -. 1.0 }
    | Valid | Skewed | Negative | Non_finite | Future | Regressing -> { time; total; integral }
  in
  { unacked = step 0 base.unacked; unread = step 1 base.unread; ackdelay = step 2 base.ackdelay }

let traced () =
  let e = E2e.Estimator.create ~at:0 and tr = Sim.Trace.create ~capacity:256 () in
  Sim.Trace.set_enabled tr true;
  E2e.Estimator.set_trace e tr ~id:"p";
  (e, tr)

let last_record tr = List.nth_opt (List.rev (Sim.Trace.records tr)) 0

let prop_triple_path_is_wire_path =
  QCheck.Test.make ~name:"ingest_remote = ingest_wire of_triple; triple <-> wire exact"
    ~count:500 arb_steps (fun steps ->
      let e_tri, tr_tri = traced () and e_wire, tr_wire = traced () in
      let zero = share 0 0 0.0 in
      let base = ref (triple zero zero zero) and now = ref 0 and skews = ref 0 in
      List.for_all
        (fun s ->
          now := !now + us (s.dt + 1);
          List.iter
            (fun e ->
              E2e.Estimator.track_unacked e ~at:(!now - us s.dt) 1;
              E2e.Estimator.track_unacked e ~at:!now (-1))
            [ e_tri; e_wire ];
          let tr = draw !base ~now:!now s in
          let w = E2e.Exchange.of_triple tr in
          let skewed =
            tr.unacked.time <> tr.unread.time || tr.unread.time <> tr.ackdelay.time
          in
          let round_trip =
            skewed
            || compare (E2e.Exchange.to_triple w) tr = 0
               && E2e.Exchange.has_share w
               && not (E2e.Exchange.has_hint w)
          in
          let want = if skewed then "skew" else E2e.Estimator.verdict e_wire ~at:!now w in
          E2e.Estimator.ingest_remote e_tri ~at:!now tr;
          if not skewed then E2e.Estimator.ingest_wire e_wire ~at:!now w;
          let traced_as =
            match last_record tr_tri with
            | Some { event = Share_rejected { reason }; _ } -> reason
            | Some { event = Share_ingested _; _ } -> ""
            | _ -> "(nothing)"
          in
          if want = "" then base := tr;
          if skewed then incr skews;
          round_trip && traced_as = want
          && (skewed || last_record tr_tri = last_record tr_wire)
          && E2e.Estimator.rejected_shares e_tri = E2e.Estimator.rejected_shares e_wire + !skews
          && compare (E2e.Estimator.remote_window e_tri) (E2e.Estimator.remote_window e_wire) = 0
          && compare
               (E2e.Estimator.peek_estimate e_tri ~at:!now)
               (E2e.Estimator.peek_estimate e_wire ~at:!now)
             = 0)
        steps)

let suite =
  [
    ( "core.exchange",
      [
        Alcotest.test_case "wire size is 36" `Quick test_wire_size;
        Alcotest.test_case "codec roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "bad length rejected" `Quick test_decode_bad_length;
        Alcotest.test_case "unwrap after 32-bit overflow" `Quick test_unwrap_after_overflow;
        Alcotest.test_case "deltas preserved across wrap" `Quick
          test_wire_roundtrip_preserves_deltas_across_wrap;
        Alcotest.test_case "scheduler: every segment" `Quick test_scheduler_every_segment;
        Alcotest.test_case "scheduler: periodic" `Quick test_scheduler_periodic;
        Alcotest.test_case "scheduler: on demand" `Quick test_scheduler_on_demand;
        QCheck_alcotest.to_alcotest prop_triple_path_is_wire_path;
      ] );
    ( "core.latency",
      [
        Alcotest.test_case "combination formula" `Quick test_combine_formula;
        Alcotest.test_case "requires local unacked" `Quick
          test_combine_requires_local_unacked;
        Alcotest.test_case "clamps negative" `Quick test_combine_clamps_negative;
        Alcotest.test_case "missing terms default to zero" `Quick
          test_combine_missing_terms_default_zero;
        Alcotest.test_case "reconcile takes max" `Quick test_reconcile_max;
      ] );
    ( "core.estimator",
      [
        Alcotest.test_case "basic local+remote flow" `Quick test_estimator_basic_flow;
        Alcotest.test_case "window advances" `Quick test_estimator_window_advances;
        Alcotest.test_case "peek does not advance" `Quick
          test_estimator_peek_does_not_advance;
        Alcotest.test_case "remote baseline pinned until estimate" `Quick
          test_estimator_remote_baseline_pinned;
        Alcotest.test_case "queue sizes" `Quick test_estimator_queue_sizes;
        Alcotest.test_case "throughput" `Quick test_estimator_throughput;
      ] );
  ]
