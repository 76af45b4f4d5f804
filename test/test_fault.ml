(* Tests for the fault-injection subsystem and graceful estimator
   degradation: the plan grammar, injector determinism, link-level
   fault events, the estimator's staleness clock and ingest clamps,
   the freeze/thaw hysteresis, toggler pinning, RTO backoff, and the
   end-to-end liveness/recovery invariants under a fault plan. *)

let us = Sim.Time.us

(* {1 Plan grammar} *)

let parse text =
  match Fault.Plan.of_string text with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse failed: %s" e

let parse_err text =
  match Fault.Plan.of_string text with
  | Ok _ -> Alcotest.failf "expected parse error for %S" text
  | Error e -> e

let test_plan_full_grammar () =
  let p =
    parse
      "# adverse network\n\
       loss dir=c2s p_gb=0.05 p_bg=0.4 good=0.001 bad=1\n\
       reorder dir=both prob=0.05 disp=3 quantum_us=20\n\
       dup dir=s2c prob=0.01\n\
       corrupt dir=both prob=0.02\n\
       blackout dir=both from_ms=150 until_ms=170\n\
       rate at_ms=200 gbps=0.5\n\
       delay at_ms=200 us=100\n"
  in
  (match p.c2s.loss with
  | Some g ->
    Alcotest.(check (float 1e-9)) "p_gb" 0.05 g.p_gb;
    Alcotest.(check (float 1e-9)) "p_bg" 0.4 g.p_bg;
    Alcotest.(check (float 1e-9)) "good" 0.001 g.loss_good;
    Alcotest.(check (float 1e-9)) "bad admits 1.0" 1.0 g.loss_bad
  | None -> Alcotest.fail "c2s loss missing");
  Alcotest.(check bool) "loss only on c2s" true (p.s2c.loss = None);
  (match p.s2c.reorder with
  | Some r ->
    Alcotest.(check (float 1e-9)) "reorder prob" 0.05 r.reorder_prob;
    Alcotest.(check int) "disp" 3 r.max_displacement;
    Alcotest.(check (float 1e-9)) "quantum" 20.0 r.quantum_us
  | None -> Alcotest.fail "s2c reorder missing");
  Alcotest.(check (float 1e-9)) "dup s2c" 0.01 p.s2c.duplicate;
  Alcotest.(check (float 1e-9)) "dup not c2s" 0.0 p.c2s.duplicate;
  Alcotest.(check (float 1e-9)) "corrupt both" 0.02 p.c2s.corrupt;
  (match p.c2s.blackouts with
  | [ b ] ->
    Alcotest.(check (float 1e-3)) "from_ms -> us" 150e3 b.from_us;
    Alcotest.(check (float 1e-3)) "until_ms -> us" 170e3 b.until_us
  | _ -> Alcotest.fail "expected one blackout");
  match p.steps with
  | [ r; d ] ->
    Alcotest.(check (float 1e-3)) "rate at" 200e3 r.at_us;
    Alcotest.(check bool) "rate gbps" true (r.gbit_per_s = Some 0.5);
    Alcotest.(check bool) "delay us" true (d.delay_us = Some 100.0)
  | _ -> Alcotest.fail "expected two steps"

let test_plan_bernoulli_shorthand () =
  let p = parse "loss prob=0.02\n" in
  match p.c2s.loss with
  | Some g ->
    Alcotest.(check (float 1e-9)) "stateless: p_gb" 0.0 g.p_gb;
    Alcotest.(check (float 1e-9)) "loss in both states" 0.02 g.loss_good;
    Alcotest.(check (float 1e-9)) "loss bad" 0.02 g.loss_bad;
    Alcotest.(check bool) "dir defaults to both" true (p.s2c.loss <> None)
  | None -> Alcotest.fail "loss missing"

let test_plan_errors_carry_line () =
  let e = parse_err "loss prob=0.01\ndup prob=2\n" in
  Alcotest.(check bool) ("line number in " ^ e) true
    (String.length e >= 17 && String.sub e 0 17 = "fault plan line 2");
  (* Bernoulli probabilities stay strict... *)
  let e = parse_err "loss prob=1\n" in
  Alcotest.(check bool) ("range in " ^ e) true
    (String.length e > 0 && e <> "");
  (* ...while Gilbert-Elliott parameters admit exactly 1.0 but no more. *)
  ignore (parse "loss p_bg=1 bad=1\n");
  let e = parse_err "loss bad=1.5\n" in
  Alcotest.(check bool) "inclusive range message" true
    (String.length e >= 5
    && String.sub e (String.length e - 5) 5 = "[0,1]");
  ignore (parse_err "loss prob=0.1 banana=2\n");
  ignore (parse_err "explode dir=both\n");
  ignore (parse_err "blackout from_ms=10 until_ms=5\n")

let test_plan_roundtrip () =
  let text =
    "loss dir=c2s p_gb=0.05 p_bg=0.4 good=0.001 bad=0.3\n\
     reorder dir=s2c prob=0.05 disp=3 quantum_us=20\n\
     dup dir=both prob=0.01\n\
     corrupt dir=c2s prob=0.02\n\
     blackout dir=s2c from_us=150000 until_us=170000\n\
     rate at_us=200000 gbps=0.5\n"
  in
  let p = parse text in
  let p' = parse (Fault.Plan.to_string p) in
  Alcotest.(check string) "print/parse fixpoint" (Fault.Plan.to_string p)
    (Fault.Plan.to_string p')

let test_plan_empty () =
  Alcotest.(check bool) "blank text" true
    (Fault.Plan.is_empty (parse "\n  # just a comment\n\n"));
  Alcotest.(check bool) "a directive is not empty" false
    (Fault.Plan.is_empty (parse "dup prob=0.5\n"))

(* {1 Injector} *)

let decisions side ~seed ~n =
  let inj = Fault.Injector.create ~side ~rng:(Sim.Rng.create ~seed) in
  ( List.init n (fun i -> Fault.Injector.decide inj ~now_us:(float_of_int (i * 10))),
    inj )

let chaotic_side =
  {
    Fault.Plan.empty_side with
    loss = Some { Fault.Plan.p_gb = 0.1; p_bg = 0.3; loss_good = 0.01; loss_bad = 0.8 };
    reorder =
      Some { Fault.Plan.reorder_prob = 0.2; max_displacement = 3; quantum_us = 20.0 };
    duplicate = 0.1;
  }

let test_injector_deterministic_per_seed () =
  let d1, i1 = decisions chaotic_side ~seed:7 ~n:500 in
  let d2, i2 = decisions chaotic_side ~seed:7 ~n:500 in
  Alcotest.(check bool) "same seed, same fate sequence" true (d1 = d2);
  Alcotest.(check int) "same drops" (Fault.Injector.drops i1)
    (Fault.Injector.drops i2);
  Alcotest.(check int) "same reorders" (Fault.Injector.reorders i1)
    (Fault.Injector.reorders i2);
  let d3, _ = decisions chaotic_side ~seed:8 ~n:500 in
  Alcotest.(check bool) "different seed differs" true (d1 <> d3);
  Alcotest.(check bool) "faults actually fired" true
    (Fault.Injector.drops i1 > 0 && Fault.Injector.reorders i1 > 0
   && Fault.Injector.duplicates i1 > 0)

let test_injector_blackout_window () =
  let side =
    {
      Fault.Plan.empty_side with
      blackouts = [ { Fault.Plan.from_us = 100.0; until_us = 200.0 } ];
    }
  in
  let inj = Fault.Injector.create ~side ~rng:(Sim.Rng.create ~seed:1) in
  let fate t =
    match (Fault.Injector.decide inj ~now_us:t).action with
    | Fault.Injector.Deliver -> "deliver"
    | Fault.Injector.Drop r -> r
  in
  Alcotest.(check string) "before" "deliver" (fate 50.0);
  Alcotest.(check string) "inside" "blackout" (fate 150.0);
  Alcotest.(check string) "after" "deliver" (fate 250.0);
  Alcotest.(check int) "drops counted" 1 (Fault.Injector.drops inj)

let test_injector_bursts () =
  (* With loss only in the Bad state, drops must cluster: given ~4x
     more packets than bursts, a Bernoulli channel of the same rate
     would almost never produce runs of 4+, while Gilbert-Elliott with
     p_bg=0.25 makes them routine. *)
  let side =
    {
      Fault.Plan.empty_side with
      loss = Some { Fault.Plan.p_gb = 0.0132; p_bg = 0.25; loss_good = 0.0; loss_bad = 1.0 };
    }
  in
  let inj = Fault.Injector.create ~side ~rng:(Sim.Rng.create ~seed:11) in
  let run_len = ref 0 and max_run = ref 0 in
  for i = 0 to 9_999 do
    match (Fault.Injector.decide inj ~now_us:(float_of_int i)).action with
    | Fault.Injector.Drop _ ->
      incr run_len;
      if !run_len > !max_run then max_run := !run_len
    | Fault.Injector.Deliver -> run_len := 0
  done;
  let drops = Fault.Injector.drops inj in
  Alcotest.(check bool)
    (Printf.sprintf "long-run loss ~5%% (got %d/10000)" drops)
    true
    (drops > 250 && drops < 900);
  Alcotest.(check bool)
    (Printf.sprintf "bursty (longest run %d)" !max_run)
    true (!max_run >= 4)

let sample_triple at : E2e.Exchange.triple =
  let share : E2e.Queue_state.share = { time = at; total = 10; integral = 1e6 } in
  { unacked = share; unread = share; ackdelay = share }

(* A segment's metadata: the sample triple's share and a hint. *)
let sample_wire at : E2e.Exchange.wire =
  { (E2e.Exchange.of_triple (sample_triple at)) with
    hint_time = float_of_int at; hint_total = 4.0; hint_integral = 5e5 }

let test_injector_corruption () =
  let side = { Fault.Plan.empty_side with corrupt = 0.9 } in
  let inj = Fault.Injector.create ~side ~rng:(Sim.Rng.create ~seed:5) in
  let original = sample_wire (us 1000) in
  let fired = ref 0 and garbled = ref 0 and undecodable = ref 0 in
  for _ = 1 to 300 do
    match Fault.Injector.corrupt_share inj original with
    | None -> ()
    | Some g ->
      incr fired;
      if (g.hint_time, g.hint_total, g.hint_integral)
         <> (original.hint_time, original.hint_total, original.hint_integral)
      then Alcotest.fail "corruption touched the hint";
      if E2e.Exchange.has_share g then begin
        incr garbled;
        if g = original then Alcotest.fail "corruption returned the original"
      end
      else incr undecodable
  done;
  Alcotest.(check int) "counter matches fires" !fired
    (Fault.Injector.corruptions inj);
  Alcotest.(check bool) "mostly fires at prob=0.9" true (!fired > 200);
  Alcotest.(check bool) "some corruptions break the codec" true (!undecodable > 0);
  Alcotest.(check bool) "some decode to garbage" true (!garbled > 0)

(* Every share [a] sends is corrupted on its way to [b].  One whose
   option no longer decodes is dropped (no [Share_ingested] or
   [Share_rejected] at [b]), but the hint beside it still arrives: [b]'s
   hint window advances exactly as on a clean link, and the link bills
   the same wire bytes. *)
let test_undecodable_share_keeps_hint () =
  let run corrupt =
    let engine = Sim.Engine.create () in
    let host =
      {
        Tcp.Conn.default_host with
        socket = { Tcp.Socket.default_config with nagle = false; exchange = Every_segment };
      }
    in
    let conn = Tcp.Conn.create engine ~a:host ~b:host () in
    let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
    let side = { Fault.Plan.empty_side with corrupt } in
    Tcp.Link.set_fault (Tcp.Conn.link_ab conn)
      (Fault.Injector.create ~side ~rng:(Sim.Rng.create ~seed:11));
    let tracker = E2e.Hints.tracker ~at:0 in
    Tcp.Socket.set_hint_tracker a tracker;
    let tr = Sim.Trace.create ~capacity:4096 () in
    Sim.Trace.set_enabled tr true;
    Tcp.Socket.set_trace b tr;
    Tcp.Socket.on_readable b (fun () ->
        ignore (Tcp.Socket.recv b (Tcp.Socket.recv_available b)));
    let shares_at_b () =
      List.length (Sim.Trace.find tr ~tag:"share")
      + List.length (Sim.Trace.find tr ~tag:"share_reject")
    in
    let steps =
      List.init 60 (fun i ->
          let at = us (100 * (i + 1)) in
          ignore
            (Sim.Engine.schedule_at engine ~at (fun () ->
                 E2e.Hints.create tracker ~at 1;
                 Tcp.Socket.send a "req"));
          let before = shares_at_b () in
          Sim.Engine.run_until engine (at + us 90);
          (shares_at_b () - before, Tcp.Socket.remote_hint_window b))
    in
    (steps, Tcp.Link.bytes (Tcp.Conn.link_ab conn), Tcp.Link.corrupted_shares (Tcp.Conn.link_ab conn))
  in
  let clean, clean_bytes, _ = run 0.0 in
  let corrupted, bytes, n_corrupted = run 1.0 in
  Alcotest.(check int) "every share corrupted" 60 n_corrupted;
  Alcotest.(check int) "same wire bytes billed" clean_bytes bytes;
  let last = function
    | Some (_, (s : E2e.Queue_state.share)) -> s.time
    | None -> -1
  in
  let dropped = ref 0 and prev = ref (-1) in
  List.iter2
    (fun (n_clean, w_clean) (n, w) ->
      Alcotest.(check int) "one share per request on a clean link" 1 n_clean;
      if n = 0 then incr dropped;
      Alcotest.(check bool) "hint window as on a clean link" true (w = w_clean);
      Alcotest.(check bool) "hint window advances" true (last w > !prev);
      prev := last w)
    clean corrupted;
  Alcotest.(check bool) "some shares no longer decoded" true (!dropped > 0)

(* {1 Link-level injection and trace events} *)

let link_fixture side =
  let engine = Sim.Engine.create () in
  let link = Tcp.Link.create engine ~prop_delay:(us 2) ~gbit_per_s:1.0 in
  let inj = Fault.Injector.create ~side ~rng:(Sim.Rng.create ~seed:3) in
  Tcp.Link.set_fault link inj;
  let trace = Sim.Trace.create ~capacity:16384 () in
  Sim.Trace.set_enabled trace true;
  Tcp.Link.set_trace link trace ~id:"l0";
  (engine, link, inj, trace)

let test_link_drop_events () =
  let side =
    { Fault.Plan.empty_side with loss = Some (Fault.Plan.bernoulli ~prob:0.5) }
  in
  let engine, link, inj, trace = link_fixture side in
  let arrived = ref 0 in
  for i = 0 to 999 do
    ignore
      (Sim.Engine.schedule_at engine ~at:(us (i * 10)) (fun () ->
           Tcp.Link.send link ~seq:i ~wire_bytes:100 (fun () -> incr arrived)))
  done;
  Sim.Engine.run engine;
  Alcotest.(check int) "conservation" 1000 (!arrived + Tcp.Link.dropped link);
  Alcotest.(check int) "link counter mirrors injector" (Fault.Injector.drops inj)
    (Tcp.Link.dropped link);
  let drop_events =
    List.filter
      (fun (r : Sim.Trace.record) ->
        match r.event with
        | Sim.Trace.Segment_dropped { reason = "loss"; _ } -> true
        | _ -> false)
      (Sim.Trace.records trace)
  in
  Alcotest.(check int) "one typed event per drop" (Tcp.Link.dropped link)
    (List.length drop_events)

let test_link_reorder_events () =
  let side =
    {
      Fault.Plan.empty_side with
      reorder =
        Some { Fault.Plan.reorder_prob = 0.3; max_displacement = 3; quantum_us = 50.0 };
    }
  in
  let engine, _link, inj, trace = link_fixture side in
  let engine_link = engine in
  let order = ref [] in
  let link2 = _link in
  for i = 0 to 199 do
    ignore
      (Sim.Engine.schedule_at engine_link ~at:(us (i * 10)) (fun () ->
           Tcp.Link.send link2 ~seq:i ~wire_bytes:100 (fun () ->
               order := i :: !order)))
  done;
  Sim.Engine.run engine;
  let order = List.rev !order in
  Alcotest.(check int) "nothing lost" 200 (List.length order);
  let inversions =
    let rec go = function
      | a :: (b :: _ as rest) -> (if a > b then 1 else 0) + go rest
      | _ -> 0
    in
    go order
  in
  Alcotest.(check bool) "later packets overtook displaced ones" true
    (inversions > 0);
  let reorder_events =
    List.filter
      (fun (r : Sim.Trace.record) ->
        match r.event with Sim.Trace.Segment_reordered _ -> true | _ -> false)
      (Sim.Trace.records trace)
  in
  Alcotest.(check int) "typed events match injector" (Fault.Injector.reorders inj)
    (List.length reorder_events);
  Alcotest.(check bool) "reorders fired" true (Fault.Injector.reorders inj > 0)

let test_link_duplicate_events () =
  let side = { Fault.Plan.empty_side with duplicate = 0.3 } in
  let engine, link, inj, trace = link_fixture side in
  let arrived = ref 0 in
  for i = 0 to 499 do
    ignore
      (Sim.Engine.schedule_at engine ~at:(us (i * 10)) (fun () ->
           Tcp.Link.send link ~seq:i ~wire_bytes:100 (fun () -> incr arrived)))
  done;
  Sim.Engine.run engine;
  Alcotest.(check int) "arrivals = sends + duplicates"
    (500 + Fault.Injector.duplicates inj)
    !arrived;
  Alcotest.(check bool) "duplicates fired" true
    (Fault.Injector.duplicates inj > 0);
  let dup_events =
    List.filter
      (fun (r : Sim.Trace.record) ->
        match r.event with Sim.Trace.Segment_duplicated _ -> true | _ -> false)
      (Sim.Trace.records trace)
  in
  Alcotest.(check int) "typed events match injector"
    (Fault.Injector.duplicates inj) (List.length dup_events)

(* {1 Estimator staleness clock} *)

let test_estimator_staleness_clock () =
  let e = E2e.Estimator.create ~at:0 in
  Alcotest.(check bool) "no timeout -> never stale" false
    (E2e.Estimator.is_stale e ~at:(us 1_000_000));
  E2e.Estimator.set_staleness e ~timeout:(Some (us 100));
  Alcotest.(check bool) "fresh while anchored at creation" false
    (E2e.Estimator.is_stale e ~at:(us 50));
  Alcotest.(check bool) "stale once the anchor ages out" true
    (E2e.Estimator.is_stale e ~at:(us 150));
  Alcotest.(check int) "no share yet" (-1) (E2e.Estimator.last_share_at e);
  E2e.Estimator.ingest_remote e ~at:(us 200) (sample_triple (us 190));
  Alcotest.(check bool) "share arrival" true
    (E2e.Estimator.last_share_at e = us 200);
  Alcotest.(check bool) "fresh again" false
    (E2e.Estimator.is_stale e ~at:(us 250));
  Alcotest.(check bool) "stale after silence" true
    (E2e.Estimator.is_stale e ~at:(us 350));
  E2e.Estimator.set_staleness e ~timeout:None;
  Alcotest.(check bool) "clearing the timeout clears staleness" false
    (E2e.Estimator.is_stale e ~at:(us 1_000_000))

let test_estimator_ingest_clamps () =
  let e = E2e.Estimator.create ~at:0 in
  E2e.Estimator.ingest_remote e ~at:(us 200) (sample_triple (us 190));
  let accepted_window = E2e.Estimator.remote_window e in
  let reject label t at =
    let before = E2e.Estimator.rejected_shares e in
    E2e.Estimator.ingest_remote e ~at t;
    Alcotest.(check int) (label ^ " rejected") (before + 1)
      (E2e.Estimator.rejected_shares e);
    Alcotest.(check bool) (label ^ " leaves state untouched") true
      (E2e.Estimator.remote_window e = accepted_window
      && E2e.Estimator.last_share_at e = us 200)
  in
  (* skew: the three snapshot times must agree *)
  let skewed =
    { (sample_triple (us 300)) with unread = { time = us 299; total = 10; integral = 1e6 } }
  in
  reject "skew" skewed (us 310);
  (* future: a snapshot from ahead of local time *)
  reject "future" (sample_triple (us 10_000)) (us 310);
  (* regress: totals running backwards vs the accepted share *)
  let regressed : E2e.Exchange.triple =
    let share : E2e.Queue_state.share = { time = us 300; total = 3; integral = 1e6 } in
    { unacked = share; unread = share; ackdelay = share }
  in
  reject "regress" regressed (us 310);
  (* range: non-finite integral *)
  let weird : E2e.Exchange.triple =
    let share : E2e.Queue_state.share =
      { time = us 300; total = 10; integral = Float.nan }
    in
    { unacked = share; unread = share; ackdelay = share }
  in
  reject "range" weird (us 310);
  (* a plausible successor is still welcome after all that *)
  (let share : E2e.Queue_state.share = { time = us 390; total = 12; integral = 2e6 } in
   let fresh : E2e.Exchange.triple = { unacked = share; unread = share; ackdelay = share } in
   E2e.Estimator.ingest_remote e ~at:(us 400) fresh);
  Alcotest.(check bool) "recovers after rejects" true
    (E2e.Estimator.last_share_at e = us 400)

(* {1 Degradation hysteresis} *)

let test_degrade_hysteresis () =
  let d = E2e.Degrade.create ~config:{ freeze_after = 2; thaw_after = 2 } () in
  Alcotest.(check bool) "one stale tick: still active" true
    (E2e.Degrade.step d ~stale:true = E2e.Degrade.Active);
  Alcotest.(check bool) "an isolated gap resets the count" true
    (E2e.Degrade.step d ~stale:false = E2e.Degrade.Active);
  ignore (E2e.Degrade.step d ~stale:true);
  Alcotest.(check bool) "two consecutive stale ticks freeze" true
    (E2e.Degrade.step d ~stale:true = E2e.Degrade.Frozen);
  Alcotest.(check int) "freeze counted" 1 (E2e.Degrade.freezes d);
  Alcotest.(check bool) "one fresh tick: still frozen" true
    (E2e.Degrade.step d ~stale:false = E2e.Degrade.Frozen);
  Alcotest.(check bool) "a relapse resets the thaw count" true
    (E2e.Degrade.step d ~stale:true = E2e.Degrade.Frozen);
  ignore (E2e.Degrade.step d ~stale:false);
  Alcotest.(check bool) "two consecutive fresh ticks thaw" true
    (E2e.Degrade.step d ~stale:false = E2e.Degrade.Active);
  Alcotest.(check int) "thaw counted" 1 (E2e.Degrade.thaws d);
  match E2e.Degrade.create ~config:{ freeze_after = 0; thaw_after = 1 } () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted non-positive hysteresis"

let test_toggler_force () =
  let t =
    E2e.Toggler.create ~epsilon:1.0 ~policy:E2e.Policy.Prefer_latency
      ~rng:(Sim.Rng.create ~seed:1) ~initial:E2e.Toggler.Batch_on ()
  in
  E2e.Toggler.force t (Some E2e.Toggler.Batch_off);
  Alcotest.(check bool) "forced mode reported" true
    (E2e.Toggler.forced t = Some E2e.Toggler.Batch_off);
  for _ = 1 to 20 do
    (* epsilon=1.0 explores every decision, so an unforced toggler
       would flip; pinned, it must not. *)
    Alcotest.(check bool) "pinned" true
      (E2e.Toggler.decide t = E2e.Toggler.Batch_off)
  done;
  E2e.Toggler.force t None;
  Alcotest.(check bool) "released" true (E2e.Toggler.forced t = None)

(* {1 RTO backoff (regression)} *)

(* Exponential backoff must double the retransmit gap, cap at a 64x
   (shift 6) multiplier, and reset to the base RTO after any successful
   ACK -- including after a string of back-to-back fires. *)
let test_rto_backoff_cap_and_reset () =
  let engine = Sim.Engine.create () in
  let host =
    {
      Tcp.Conn.socket = { Tcp.Socket.default_config with nagle = false };
      tx_cost = 0;
      rx_seg_cost = 0;
      rx_batch_cost = 0;
      gro = { (Tcp.Gro.default_config ~mss:1448) with enabled = false };
    }
  in
  let link = { Tcp.Conn.prop_delay = us 5; gbit_per_s = 100.0 } in
  let conn = Tcp.Conn.create engine ~a:host ~b:host ~link_ab:link ~link_ba:link () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  Tcp.Socket.on_readable b (fun () ->
      ignore (Tcp.Socket.recv b (Tcp.Socket.recv_available b)));
  let blackhole = ref false in
  let attempts = ref [] in
  let inner = Tcp.Conn.link_ab conn in
  Tcp.Socket.set_transmit a (fun seg ->
      if Tcp.Segment.len seg > 0 then begin
        attempts := Sim.Engine.now engine :: !attempts;
        if not !blackhole then
          Tcp.Link.send inner ~seq:(-1) ~wire_bytes:(Tcp.Segment.wire_bytes seg) (fun () ->
              Tcp.Socket.receive_segment b seg)
      end
      else
        Tcp.Link.send inner ~seq:(-1) ~wire_bytes:(Tcp.Segment.wire_bytes seg) (fun () ->
            Tcp.Socket.receive_segment b seg));
  (* Prime the RTT estimate so the base RTO is the 200ms floor, not the
     1s initial value. *)
  Tcp.Socket.send a "prime";
  Sim.Engine.run_until engine (Sim.Time.ms 100);
  Alcotest.(check int) "primed cleanly" 0 (Tcp.Socket.unacked_bytes a);
  (* Cut the wire and watch the retransmit schedule. *)
  attempts := [];
  blackhole := true;
  Tcp.Socket.send a "doomed";
  Sim.Engine.run_until engine (Sim.Time.sec 60);
  let times = List.rev !attempts in
  let gaps =
    let rec go = function
      | a :: (b :: _ as rest) -> (b - a) :: go rest
      | _ -> []
    in
    go times
  in
  if List.length gaps < 8 then
    Alcotest.failf "expected >= 8 retransmit gaps, got %d" (List.length gaps);
  let g = Array.of_list gaps in
  Alcotest.(check bool)
    (Printf.sprintf "base gap is the RTO floor (%dms)" (g.(0) / 1_000_000))
    true
    (g.(0) >= Sim.Time.ms 190 && g.(0) <= Sim.Time.ms 260);
  for i = 0 to 5 do
    let ratio = float_of_int g.(i + 1) /. float_of_int g.(i) in
    if ratio < 1.9 || ratio > 2.1 then
      Alcotest.failf "gap %d->%d: expected doubling, got x%.2f" i (i + 1) ratio
  done;
  let cap_ratio = float_of_int g.(7) /. float_of_int g.(6) in
  Alcotest.(check bool)
    (Printf.sprintf "cap: gap stops growing at 64x (x%.2f)" cap_ratio)
    true
    (cap_ratio > 0.95 && cap_ratio < 1.05);
  let c = Tcp.Socket.counters a in
  Alcotest.(check bool) "back-to-back fires counted" true (c.rto_fires >= 8);
  (* Heal the wire; the next fire delivers, the ACK resets the backoff. *)
  blackhole := false;
  Sim.Engine.run_until engine (Sim.Time.sec 120);
  Alcotest.(check int) "backlog delivered after healing" 0
    (Tcp.Socket.unacked_bytes a);
  attempts := [];
  blackhole := true;
  Tcp.Socket.send a "again";
  Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.sec 1));
  let times = List.rev !attempts in
  (match times with
  | t0 :: t1 :: _ ->
    Alcotest.(check bool)
      (Printf.sprintf "backoff reset after ACK (first gap %dms)"
         ((t1 - t0) / 1_000_000))
      true
      (t1 - t0 <= Sim.Time.ms 400)
  | _ -> Alcotest.fail "no retransmission after reset")

(* {1 End-to-end: determinism, liveness, degradation, recovery} *)

let dyn_config ?(rate = 10e3) ?(duration = Sim.Time.ms 400)
    ?(warmup = Sim.Time.ms 20) ?fault () =
  let base =
    Loadgen.Runner.default_config ~rate_rps:rate
      ~batching:(Loadgen.Runner.Dynamic Loadgen.Runner.default_dynamic)
  in
  { base with warmup; duration; cc = true; fault }

let adverse_plan =
  Result.get_ok
    (Fault.Plan.of_string
       "loss dir=both p_gb=0.002 p_bg=0.5 good=0 bad=1\n\
        reorder dir=both prob=0.02 disp=3 quantum_us=20\n\
        dup dir=both prob=0.01\n\
        corrupt dir=both prob=0.05\n")

let blackout_plan ~from_ms ~until_ms =
  let side =
    {
      Fault.Plan.empty_side with
      blackouts =
        [ { Fault.Plan.from_us = from_ms *. 1e3; until_us = until_ms *. 1e3 } ];
    }
  in
  { Fault.Plan.c2s = side; s2c = side; steps = [] }

let fingerprint (r : Loadgen.Runner.result) =
  ( r.completed,
    r.issued,
    r.packets,
    r.link_dropped,
    r.shares_corrupted,
    r.shares_rejected,
    r.measured_mean_us,
    r.measured_p99_us )

(* Run [cfg] as the one-tenant fleet it is, check it against the
   invariant oracle, and project the single-run result. *)
let run_checked ?(owed = Loadgen.Invariants.base) cfg =
  let r = Loadgen.Fleet.run (Loadgen.Runner.fleet_config cfg) in
  Alcotest.(check (list string)) "invariants hold" [] (Loadgen.Invariants.check owed r);
  Loadgen.Runner.of_fleet cfg r

let test_fault_run_deterministic () =
  let r1 = run_checked (dyn_config ~fault:adverse_plan ()) in
  let r2 = Loadgen.Runner.run (dyn_config ~fault:adverse_plan ()) in
  Alcotest.(check bool) "identical fingerprints across repeats" true
    (fingerprint r1 = fingerprint r2);
  Alcotest.(check bool) "the plan actually dropped packets" true
    (r1.link_dropped > 0)

let test_fault_grid_deterministic_across_domains () =
  (* The chaos grid must produce bit-identical per-cell results whether
     cells run sequentially or on two domains: each cell's rng derives
     only from its own config. *)
  let base = dyn_config ~duration:(Sim.Time.ms 120) () in
  let run domains =
    Loadgen.Chaos.grid ~base ~losses:[ 0.0; 0.02 ] ~reorders:[ 0.0 ] ~blackouts_ms:[ 0.0 ] ()
    |> Loadgen.Chaos.run_grid ~domains
    |> List.map (fun (v : Loadgen.Chaos.verdict) ->
           (v.cell.label, fingerprint (Loadgen.Runner.of_fleet base v.result)))
  in
  Alcotest.(check bool) "domains=1 equals domains=2" true (run 1 = run 2)

let test_blackout_liveness_and_recovery () =
  (* Closure and liveness: nothing silently lost across the outage. *)
  let r =
    run_checked
      ~owed:{ Loadgen.Invariants.base with froze = true; thawed = true }
      (dyn_config ~fault:(blackout_plan ~from_ms:100.0 ~until_ms:120.0) ())
  in
  Alcotest.(check bool) "blackout visible as drops" true (r.link_dropped > 0);
  (* The toggler fell back during the outage... *)
  (match r.degrade_freezes with
  | Some n -> Alcotest.(check bool) "froze at least once" true (n >= 1)
  | None -> Alcotest.fail "no degradation stats on a dynamic fault run");
  (match r.degrade_thaws with
  | Some n -> Alcotest.(check bool) "thawed after recovery" true (n >= 1)
  | None -> Alcotest.fail "no thaw stats");
  Alcotest.(check bool) "active again at run end" true
    (r.degrade_frozen_end = Some false);
  (* ...and the run still made real progress: the 20ms outage plus one
     200ms RTO cost at most ~a third of the 400ms window. *)
  Alcotest.(check bool)
    (Printf.sprintf "most requests completed (%d/%d)" r.completed_total r.issued)
    true
    (float_of_int r.completed_total > 0.6 *. float_of_int r.issued)

let test_blackout_estimates_recover () =
  (* After the outage clears and the backlog drains, fresh estimates
     must return to the fault-free level: compare the mean estimate
     over the final settled window against the same window of the same
     config run without the plan.  Estimates are mode-dependent
     (batching on vs off changes real latency), so compare within the
     dominant mode only. *)
  let cfg fault =
    dyn_config ~rate:8e3 ~duration:(Sim.Time.ms 1000) ?fault ()
  in
  let faulted =
    Loadgen.Runner.run (cfg (Some (blackout_plan ~from_ms:100.0 ~until_ms:120.0)))
  in
  let clean = Loadgen.Runner.run (cfg None) in
  let mean_latency (r : Loadgen.Runner.result) =
    let vals =
      List.filter_map
        (fun (s : Loadgen.Runner.estimate_sample) ->
          if s.at_us >= 670e3 && s.at_us <= 1020e3
             && s.mode = E2e.Toggler.Batch_off
          then s.latency_us
          else None)
        r.samples
    in
    if List.length vals < 10 then None
    else Some (List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals))
  in
  match (mean_latency clean, mean_latency faulted) with
  | Some baseline, Some recovered ->
    let residual = Float.abs (recovered -. baseline) /. baseline in
    if residual > 0.05 then
      Alcotest.failf
        "estimate did not re-converge: clean %.1fus vs recovered %.1fus \
         (residual %.1f%%)"
        baseline recovered (residual *. 100.0)
  | None, _ -> Alcotest.fail "no settled estimates on the clean run"
  | _, None -> Alcotest.fail "no estimates after recovery"

let test_corruption_surfaces_and_is_rejected () =
  let plan =
    Result.get_ok (Fault.Plan.of_string "corrupt dir=both prob=0.3\n")
  in
  let r = run_checked (dyn_config ~fault:plan ()) in
  Alcotest.(check bool) "shares were corrupted" true (r.shares_corrupted > 0);
  Alcotest.(check bool) "no packet was dropped by corruption" true
    (r.link_dropped = 0);
  (* Corruption that survives decode must be caught by the clamps;
     either way it never poisons throughput. *)
  Alcotest.(check bool) "throughput unaffected" true
    (r.achieved_rps > 0.9 *. r.offered_rps)

let suite =
  [
    ( "fault.plan",
      [
        Alcotest.test_case "full grammar" `Quick test_plan_full_grammar;
        Alcotest.test_case "bernoulli shorthand" `Quick test_plan_bernoulli_shorthand;
        Alcotest.test_case "errors carry line numbers" `Quick
          test_plan_errors_carry_line;
        Alcotest.test_case "print/parse round-trip" `Quick test_plan_roundtrip;
        Alcotest.test_case "emptiness" `Quick test_plan_empty;
      ] );
    ( "fault.injector",
      [
        Alcotest.test_case "deterministic per seed" `Quick
          test_injector_deterministic_per_seed;
        Alcotest.test_case "blackout window" `Quick test_injector_blackout_window;
        Alcotest.test_case "Gilbert-Elliott bursts" `Quick test_injector_bursts;
        Alcotest.test_case "exchange corruption" `Quick test_injector_corruption;
        Alcotest.test_case "undecodable share keeps its hint" `Quick
          test_undecodable_share_keeps_hint;
      ] );
    ( "fault.link",
      [
        Alcotest.test_case "drops traced and conserved" `Quick test_link_drop_events;
        Alcotest.test_case "reordering overtakes" `Quick test_link_reorder_events;
        Alcotest.test_case "duplication delivers twice" `Quick
          test_link_duplicate_events;
      ] );
    ( "fault.degrade",
      [
        Alcotest.test_case "staleness clock" `Quick test_estimator_staleness_clock;
        Alcotest.test_case "ingest clamps" `Quick test_estimator_ingest_clamps;
        Alcotest.test_case "freeze/thaw hysteresis" `Quick test_degrade_hysteresis;
        Alcotest.test_case "toggler force" `Quick test_toggler_force;
      ] );
    ( "fault.rto",
      [
        Alcotest.test_case "backoff doubles, caps, resets" `Quick
          test_rto_backoff_cap_and_reset;
      ] );
    ( "fault.e2e",
      [
        Alcotest.test_case "seeded plan is deterministic" `Quick
          test_fault_run_deterministic;
        Alcotest.test_case "grid deterministic across domains" `Quick
          test_fault_grid_deterministic_across_domains;
        Alcotest.test_case "blackout liveness and recovery" `Quick
          test_blackout_liveness_and_recovery;
        Alcotest.test_case "estimates re-converge after blackout" `Quick
          test_blackout_estimates_recover;
        Alcotest.test_case "corruption rejected without damage" `Quick
          test_corruption_surfaces_and_is_rejected;
      ] );
  ]
