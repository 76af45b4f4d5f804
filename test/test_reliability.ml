(* Tests for the reliability machinery: loss injection, RTO and fast
   retransmit, out-of-order reassembly, and Reno congestion control. *)

let us = Sim.Time.us

let testbed ?(cc = false) ?(nagle = false) ?tso ?(loss_ab = 0.0) ?(loss_ba = 0.0) ?(seed = 1)
    ?(prop = us 5) () =
  let engine = Sim.Engine.create () in
  let host =
    {
      Tcp.Conn.socket =
        { Tcp.Socket.default_config with nagle; cc_enabled = cc; tso_max = tso };
      tx_cost = 0;
      rx_seg_cost = 0;
      rx_batch_cost = 0;
      gro = { (Tcp.Gro.default_config ~mss:1448) with enabled = false };
    }
  in
  let link = { Tcp.Conn.prop_delay = prop; gbit_per_s = 100.0 } in
  let conn = Tcp.Conn.create engine ~a:host ~b:host ~link_ab:link ~link_ba:link () in
  let rng = Sim.Rng.create ~seed in
  if loss_ab > 0.0 then Tcp.Link.set_loss (Tcp.Conn.link_ab conn) ~rng ~prob:loss_ab;
  if loss_ba > 0.0 then Tcp.Link.set_loss (Tcp.Conn.link_ba conn) ~rng ~prob:loss_ba;
  (engine, conn)

let drain sock = Tcp.Socket.recv sock (Tcp.Socket.recv_available sock)

let collect_into buf sock () = Buffer.add_string buf (drain sock)

let test_link_loss_drops () =
  let engine = Sim.Engine.create () in
  let link = Tcp.Link.create engine ~prop_delay:0 ~gbit_per_s:1.0 in
  Tcp.Link.set_loss link ~rng:(Sim.Rng.create ~seed:3) ~prob:0.5;
  let arrived = ref 0 in
  for _ = 1 to 1000 do
    Tcp.Link.send link ~seq:(-1) ~wire_bytes:100 (fun r () -> incr r) arrived ()
  done;
  Sim.Engine.run engine;
  Alcotest.(check int) "conservation" 1000 (!arrived + Tcp.Link.dropped link);
  Alcotest.(check bool) "roughly half dropped" true
    (Tcp.Link.dropped link > 400 && Tcp.Link.dropped link < 600)

let test_loss_recovered_by_retransmission () =
  let engine, conn = testbed ~loss_ab:0.05 ~loss_ba:0.05 () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  let received = Buffer.create 65536 in
  Tcp.Socket.on_readable b (collect_into received b);
  let data = String.init 200_000 (fun i -> Char.chr (i mod 256)) in
  Tcp.Socket.send a data;
  Sim.Engine.run engine;
  Alcotest.(check bool) "stream complete and intact" true
    (String.equal data (Buffer.contents received));
  let c = Tcp.Socket.counters a in
  Alcotest.(check bool) "retransmissions happened" true (c.retransmits > 0);
  Alcotest.(check int) "nothing left in flight" 0 (Tcp.Socket.unacked_bytes a)

let test_request_response_under_loss () =
  let engine, conn = testbed ~loss_ab:0.03 ~loss_ba:0.03 ~seed:9 () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  (* echo server *)
  Tcp.Socket.on_readable b (fun () ->
      let d = drain b in
      if String.length d > 0 then Tcp.Socket.send b d);
  let echoed = Buffer.create 4096 in
  Tcp.Socket.on_readable a (collect_into echoed a);
  let sent = Buffer.create 4096 in
  for i = 0 to 99 do
    ignore
      (Sim.Engine.schedule_at engine ~at:(us (i * 200)) (fun () ->
           let chunk = String.make (100 + (i mod 900)) (Char.chr (65 + (i mod 26))) in
           Buffer.add_string sent chunk;
           Tcp.Socket.send a chunk))
  done;
  Sim.Engine.run engine;
  Alcotest.(check int) "every byte echoed back" (Buffer.length sent)
    (Buffer.length echoed)

let test_rto_fires_on_total_blackout () =
  (* Drop everything A sends: the RTO must fire repeatedly with
     exponential backoff, and nothing must be delivered. *)
  let engine, conn = testbed ~loss_ab:0.99 ~seed:5 () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  Tcp.Socket.on_readable b (fun () -> ignore (drain b));
  Tcp.Socket.send a "doomed";
  Sim.Engine.run_until engine (Sim.Time.sec 3);
  let c = Tcp.Socket.counters a in
  Alcotest.(check bool) "RTO fired" true (c.rto_fires >= 2);
  Alcotest.(check bool) "still unacked" true (Tcp.Socket.unacked_bytes a > 0);
  (* backoff: with a ~200ms floor, 3 seconds admits at most ~4 fires *)
  Alcotest.(check bool) "exponential backoff bounds fires" true (c.rto_fires <= 5)

let test_fast_retransmit_via_dup_acks () =
  (* Lose exactly one mid-stream segment: the receiver's duplicate acks
     must trigger fast retransmit well before the RTO. *)
  let engine, conn = testbed () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  let received = Buffer.create 65536 in
  let completed_at = ref None in
  Tcp.Socket.on_readable b (fun () ->
      Buffer.add_string received (drain b);
      if Buffer.length received = 20_000 && !completed_at = None then
        completed_at := Some (Sim.Engine.now engine));
  (* arrange a one-shot loss of the 3rd data segment *)
  let intercepted = ref 0 in
  let inner = Tcp.Conn.link_ab conn in
  Tcp.Socket.set_transmit a (fun seg ->
      incr intercepted;
      if !intercepted = 3 && Tcp.Segment.len seg > 0 then () (* drop *)
      else
        Tcp.Link.send inner ~seq:(-1) ~wire_bytes:(Tcp.Segment.wire_bytes seg)
          Tcp.Socket.receive_segment b seg);
  let data = String.init 20_000 (fun i -> Char.chr (i mod 256)) in
  Tcp.Socket.send a data;
  Sim.Engine.run_until engine (Sim.Time.ms 100);
  Alcotest.(check bool) "stream recovered" true
    (String.equal data (Buffer.contents received));
  let c = Tcp.Socket.counters a in
  Alcotest.(check int) "one fast retransmit" 1 c.fast_retransmits;
  Alcotest.(check int) "no RTO needed" 0 c.rto_fires;
  (* fast retransmit is much faster than the 200ms RTO floor *)
  match !completed_at with
  | Some at -> Alcotest.(check bool) "recovered quickly" true (at < Sim.Time.ms 10)
  | None -> Alcotest.fail "stream never completed"

let test_ooo_reassembly_preserves_stream () =
  (* Deliver segments 2 and 3 before segment 1 by hand. *)
  let engine, conn = testbed () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  let received = Buffer.create 256 in
  Tcp.Socket.on_readable b (collect_into received b);
  let held = ref [] in
  Tcp.Socket.set_transmit a (fun seg -> held := seg :: !held);
  Tcp.Socket.send a (String.make 4000 'x');
  (* three segments captured; deliver in reversed order *)
  let segs = !held in
  Alcotest.(check int) "three segments" 3 (List.length segs);
  List.iter (fun seg -> Tcp.Socket.receive_segment b seg) segs;
  Sim.Engine.run engine;
  Alcotest.(check int) "all bytes delivered despite reversal" 4000
    (Buffer.length received)

let test_duplicate_data_reacked () =
  let engine, conn = testbed () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  Tcp.Socket.on_readable b (fun () -> ignore (drain b));
  let copy = ref None in
  let inner = Tcp.Conn.link_ab conn in
  Tcp.Socket.set_transmit a (fun seg ->
      if Tcp.Segment.len seg > 0 && !copy = None then copy := Some seg;
      Tcp.Link.send inner ~seq:(-1) ~wire_bytes:(Tcp.Segment.wire_bytes seg)
        Tcp.Socket.receive_segment b seg);
  Tcp.Socket.send a "hello";
  Sim.Engine.run engine;
  let acks_before = (Tcp.Socket.counters b).pure_acks_out in
  (* replay the same data segment: must be re-acked, not re-delivered *)
  (match !copy with Some seg -> Tcp.Socket.receive_segment b seg | None -> Alcotest.fail "no copy");
  Sim.Engine.run engine;
  Alcotest.(check int) "duplicate produced an ack" (acks_before + 1)
    (Tcp.Socket.counters b).pure_acks_out;
  Alcotest.(check int) "no duplicate delivery" 0 (Tcp.Socket.recv_available b)

let test_cwnd_slow_start_growth () =
  let engine, conn = testbed ~cc:true () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  Tcp.Socket.on_readable b (fun () -> ignore (drain b));
  let initial = Tcp.Socket.cwnd a in
  Alcotest.(check int) "IW10" (10 * 1448) initial;
  Tcp.Socket.send a (String.make 200_000 'w');
  Sim.Engine.run engine;
  Alcotest.(check bool) "cwnd grew in slow start" true (Tcp.Socket.cwnd a > 2 * initial)

let test_cwnd_limits_initial_burst () =
  (* With cc on, only ~10 MSS may be in flight before the first ack. *)
  let _engine, conn = testbed ~cc:true () in
  let a = Tcp.Conn.sock_a conn in
  Tcp.Socket.send a (String.make 100_000 'b');
  Alcotest.(check bool) "in-flight capped by IW" true
    (Tcp.Socket.unacked_bytes a <= 10 * 1448)

let test_cwnd_collapses_on_rto () =
  let engine, conn = testbed ~cc:true ~loss_ab:0.99 ~seed:4 () in
  let a = Tcp.Conn.sock_a conn in
  Tcp.Socket.send a (String.make 50_000 'c');
  Sim.Engine.run_until engine (Sim.Time.sec 1);
  Alcotest.(check bool) "cwnd collapsed toward 1 MSS" true (Tcp.Socket.cwnd a <= 2 * 1448);
  Alcotest.(check bool) "ssthresh lowered" true (Tcp.Socket.ssthresh a < max_int)

let prop_stream_integrity_under_loss =
  QCheck.Test.make ~name:"byte stream survives random loss (cc on)" ~count:15
    QCheck.(pair (int_range 1 10_000) (int_range 1 30))
    (fun (seed, nwrites) ->
      let engine, conn = testbed ~cc:true ~loss_ab:0.04 ~loss_ba:0.04 ~seed () in
      let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
      let received = Buffer.create 65536 in
      Tcp.Socket.on_readable b (collect_into received b);
      let sent = Buffer.create 65536 in
      for i = 1 to nwrites do
        let chunk = String.make (1 + (i * 997 mod 5000)) (Char.chr (97 + (i mod 26))) in
        Buffer.add_string sent chunk;
        ignore
          (Sim.Engine.schedule_at engine ~at:(us (i * 100)) (fun () ->
               Tcp.Socket.send a chunk))
      done;
      Sim.Engine.run engine;
      String.equal (Buffer.contents sent) (Buffer.contents received))

(* Writes made of several slices ([send_slices]) leave as segments of
   several views, which TSO cuts, acks trim and the receiver reassembles
   out of order: the stream must still arrive intact, and each write
   counts as one send(). *)
let prop_slice_writes_survive_loss =
  QCheck.Test.make ~name:"multi-slice writes survive loss, TSO and Nagle" ~count:20
    QCheck.(
      quad (int_range 1 10_000) bool bool
        (list_of_size Gen.(1 -- 25)
           (list_of_size Gen.(1 -- 4)
              (make Gen.(frequency [ (3, int_range 1 40); (1, int_range 1000 5000) ])))))
    (fun (seed, tso, nagle, writes) ->
      let tso = if tso then Some 65_536 else None in
      let engine, conn = testbed ?tso ~nagle ~loss_ab:0.04 ~loss_ba:0.04 ~seed () in
      let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
      let received = Buffer.create 65536 in
      Tcp.Socket.on_readable b (collect_into received b);
      let sent = Buffer.create 65536 in
      List.iteri
        (fun i sizes ->
          (* each piece a view into the middle of a larger string *)
          let pieces =
            List.mapi
              (fun j n ->
                let s = String.init (n + 2) (fun k -> Char.chr ((i + j + k) mod 256)) in
                Tcp.Slice.sub (Tcp.Slice.of_string s) 1 n)
              sizes
          in
          List.iter (fun v -> Buffer.add_string sent (Tcp.Slice.to_string v)) pieces;
          ignore
            (Sim.Engine.schedule_at engine ~at:(us ((i + 1) * 50)) (fun () ->
                 Tcp.Socket.send_slices a pieces)))
        writes;
      Sim.Engine.run engine;
      String.equal (Buffer.contents sent) (Buffer.contents received)
      && (Tcp.Socket.counters a).sends = List.length writes)

let test_estimator_consistent_under_loss () =
  (* Queue accounting must stay conserved through retransmissions. *)
  let engine, conn = testbed ~loss_ab:0.05 ~loss_ba:0.05 ~seed:11 () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  Tcp.Socket.on_readable b (fun () -> ignore (drain b));
  for i = 0 to 99 do
    ignore
      (Sim.Engine.schedule_at engine ~at:(us (i * 500)) (fun () ->
           Tcp.Socket.send a (String.make 2000 'e')))
  done;
  Sim.Engine.run engine;
  let ea = Tcp.Socket.estimator a and eb = Tcp.Socket.estimator b in
  Alcotest.(check int) "unacked drained" 0 (E2e.Estimator.unacked_size ea);
  Alcotest.(check int) "unread drained" 0 (E2e.Estimator.unread_size eb);
  Alcotest.(check int) "ackdelay drained" 0 (E2e.Estimator.ackdelay_size eb)

let test_runner_with_loss_and_cc () =
  (* Rare loss: mid-stream drops recover via fast retransmit; a tail or
     response drop stalls the whole stream on the 200ms RTO floor
     (TCP head-of-line blocking), so even a tiny loss rate costs a
     visible fraction of an open-loop window. *)
  let base = Loadgen.Runner.default_config ~rate_rps:20e3 ~batching:Loadgen.Runner.Static_off in
  let base =
    {
      base with
      warmup = Sim.Time.ms 20;
      duration = Sim.Time.ms 400;
      cc = true;
      loss_prob = 1e-4;
    }
  in
  let r = Loadgen.Runner.run base in
  Alcotest.(check bool) "most requests complete" true (r.completed > 2_000);
  Alcotest.(check bool) "latency finite" true (r.measured_mean_us < 1e6)

let suite =
  [
    ( "tcp.reliability",
      [
        Alcotest.test_case "link loss accounting" `Quick test_link_loss_drops;
        Alcotest.test_case "bulk transfer recovers from loss" `Quick
          test_loss_recovered_by_retransmission;
        Alcotest.test_case "request/response under loss" `Quick
          test_request_response_under_loss;
        Alcotest.test_case "RTO with backoff on blackout" `Quick
          test_rto_fires_on_total_blackout;
        Alcotest.test_case "fast retransmit on 3 dup acks" `Quick
          test_fast_retransmit_via_dup_acks;
        Alcotest.test_case "out-of-order reassembly" `Quick
          test_ooo_reassembly_preserves_stream;
        Alcotest.test_case "duplicate data re-acked" `Quick test_duplicate_data_reacked;
        QCheck_alcotest.to_alcotest prop_stream_integrity_under_loss;
        QCheck_alcotest.to_alcotest prop_slice_writes_survive_loss;
        Alcotest.test_case "estimator conserved under loss" `Quick
          test_estimator_consistent_under_loss;
      ] );
    ( "tcp.congestion",
      [
        Alcotest.test_case "slow-start growth" `Quick test_cwnd_slow_start_growth;
        Alcotest.test_case "initial window caps burst" `Quick test_cwnd_limits_initial_burst;
        Alcotest.test_case "collapse on RTO" `Quick test_cwnd_collapses_on_rto;
        Alcotest.test_case "runner with loss + cc" `Slow test_runner_with_loss_and_cc;
      ] );
  ]
