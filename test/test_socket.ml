(* Integration tests for Socket + Conn: byte-stream delivery, Nagle
   dynamics, delayed acks, flow control, instrumentation, and the
   in-band metadata exchange. *)

let us = Sim.Time.us

(* A fast, clean testbed: negligible CPU costs, GRO off, so protocol
   behaviour is observable without cost-model noise. *)
let testbed ?(nagle_a = false) ?(nagle_b = false) ?(unit_mode = E2e.Units.Bytes)
    ?(exchange = E2e.Exchange.Every_segment) ?(rcv_buf = 256 * 1024)
    ?(prop = us 5) () =
  let engine = Sim.Engine.create () in
  let mk nagle =
    {
      Tcp.Conn.socket =
        { Tcp.Socket.default_config with nagle; unit_mode; exchange; rcv_buf };
      tx_cost = 0;
      rx_seg_cost = 0;
      rx_batch_cost = 0;
      gro = { (Tcp.Gro.default_config ~mss:1448) with enabled = false };
    }
  in
  let link = { Tcp.Conn.prop_delay = prop; gbit_per_s = 100.0 } in
  let conn =
    Tcp.Conn.create engine ~a:(mk nagle_a) ~b:(mk nagle_b) ~link_ab:link ~link_ba:link ()
  in
  (engine, conn)

let drain_to_string sock =
  Tcp.Socket.recv sock (Tcp.Socket.recv_available sock)

let test_basic_transfer () =
  let engine, conn = testbed () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  let received = Buffer.create 64 in
  Tcp.Socket.on_readable b (fun () -> Buffer.add_string received (drain_to_string b));
  Tcp.Socket.send a "hello across the simulated wire";
  Sim.Engine.run engine;
  Alcotest.(check string) "payload intact" "hello across the simulated wire"
    (Buffer.contents received)

let test_large_transfer_segmentation () =
  let engine, conn = testbed () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  let n = 100_000 in
  let data = String.init n (fun i -> Char.chr (i mod 256)) in
  let received = Buffer.create n in
  Tcp.Socket.on_readable b (fun () -> Buffer.add_string received (drain_to_string b));
  Tcp.Socket.send a data;
  Sim.Engine.run engine;
  Alcotest.(check int) "all bytes" n (Buffer.length received);
  Alcotest.(check bool) "content intact" true (String.equal data (Buffer.contents received));
  let c = Tcp.Socket.counters a in
  Alcotest.(check int) "segments = ceil(n/mss)" ((n + 1447) / 1448) c.segs_out

let test_bidirectional () =
  let engine, conn = testbed () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  let got_a = Buffer.create 16 and got_b = Buffer.create 16 in
  Tcp.Socket.on_readable b (fun () ->
      Buffer.add_string got_b (drain_to_string b);
      if Buffer.contents got_b = "ping" then Tcp.Socket.send b "pong");
  Tcp.Socket.on_readable a (fun () -> Buffer.add_string got_a (drain_to_string a));
  Tcp.Socket.send a "ping";
  Sim.Engine.run engine;
  Alcotest.(check string) "request" "ping" (Buffer.contents got_b);
  Alcotest.(check string) "response" "pong" (Buffer.contents got_a)

let test_nagle_holds_second_small_write () =
  let engine, conn = testbed ~nagle_a:true () in
  let a = Tcp.Conn.sock_a conn in
  Tcp.Socket.send a "first";
  (* the first small write goes out immediately (nothing in flight);
     the second must wait for the ack *)
  Tcp.Socket.send a "second";
  let c = Tcp.Socket.counters a in
  Alcotest.(check int) "only one segment so far" 1 c.segs_out;
  Alcotest.(check bool) "hold recorded" true (c.nagle_holds > 0);
  Sim.Engine.run engine;
  let c = Tcp.Socket.counters a in
  Alcotest.(check int) "released after ack" 2 c.segs_out

let test_nodelay_sends_immediately () =
  let _engine, conn = testbed ~nagle_a:false () in
  let a = Tcp.Conn.sock_a conn in
  Tcp.Socket.send a "first";
  Tcp.Socket.send a "second";
  let c = Tcp.Socket.counters a in
  Alcotest.(check int) "both out immediately" 2 c.segs_out

let test_nagle_coalesces_held_writes () =
  let engine, conn = testbed ~nagle_a:true () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  ignore b;
  Tcp.Socket.send a (String.make 100 'x');
  (* While the first segment is unacked, several small writes queue up
     and must leave as one segment once the ack arrives. *)
  for _ = 1 to 5 do
    Tcp.Socket.send a (String.make 100 'y')
  done;
  Sim.Engine.run engine;
  let c = Tcp.Socket.counters a in
  Alcotest.(check int) "coalesced into two segments" 2 c.segs_out;
  Alcotest.(check int) "all bytes sent" 600 c.bytes_out

let test_runtime_nagle_toggle () =
  let engine, conn = testbed ~nagle_a:true () in
  let a = Tcp.Conn.sock_a conn in
  Tcp.Socket.send a "first";
  Tcp.Socket.send a "held";
  Alcotest.(check int) "held by nagle" 1 (Tcp.Socket.counters a).segs_out;
  (* toggling off must release held data on the next kick *)
  Tcp.Socket.set_nagle_enabled a false;
  Tcp.Socket.kick a;
  Alcotest.(check int) "released by toggle" 2 (Tcp.Socket.counters a).segs_out;
  Sim.Engine.run engine

let test_delayed_ack_pure_ack_count () =
  let engine, conn = testbed () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  Tcp.Socket.on_readable b (fun () -> ignore (drain_to_string b));
  (* one small write: receiver has nothing to piggyback on, so the
     40ms delayed-ack timer must produce exactly one pure ack *)
  Tcp.Socket.send a "x";
  Sim.Engine.run engine;
  let cb = Tcp.Socket.counters b in
  Alcotest.(check int) "one pure ack" 1 cb.pure_acks_out;
  Alcotest.(check int) "timer-forced" 1 (Tcp.Socket.acks_by_timer b);
  (* and it fired at the delack timeout, not earlier *)
  Alcotest.(check bool) "40ms elapsed" true
    (Sim.Engine.now engine >= Sim.Time.ms 40)

let test_ack_every_second_segment () =
  let engine, conn = testbed () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  Tcp.Socket.on_readable b (fun () -> ignore (drain_to_string b));
  Tcp.Socket.send a (String.make (1448 * 2) 'x');
  Sim.Engine.run engine;
  let cb = Tcp.Socket.counters b in
  Alcotest.(check int) "second segment forces ack" 1 cb.pure_acks_out;
  Alcotest.(check int) "not by timer" 0 (Tcp.Socket.acks_by_timer b)

let test_flow_control_blocks_and_resumes () =
  (* Receiver app reads nothing at first: the sender must stop at the
     advertised window, then resume when the app drains. *)
  let engine, conn = testbed ~rcv_buf:(16 * 1024) () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  let n = 64 * 1024 in
  Tcp.Socket.send a (String.make n 'z');
  Sim.Engine.run engine;
  Alcotest.(check bool) "sender blocked by window" true
    (Tcp.Socket.unsent_bytes a > 0);
  Alcotest.(check bool) "receiver buffer bounded" true
    (Tcp.Socket.recv_available b <= 16 * 1024);
  (* Now the app drains everything as it arrives. *)
  let received = ref (String.length (drain_to_string b)) in
  Tcp.Socket.on_readable b (fun () -> received := !received + String.length (drain_to_string b));
  Sim.Engine.run engine;
  Alcotest.(check int) "everything eventually delivered" n !received;
  Alcotest.(check int) "nothing left unsent" 0 (Tcp.Socket.unsent_bytes a)

let test_byte_conservation () =
  let engine, conn = testbed () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  let total = ref 0 in
  Tcp.Socket.on_readable b (fun () -> total := !total + String.length (drain_to_string b));
  let sent = ref 0 in
  for i = 1 to 50 do
    let chunk = String.make ((i * 37) mod 4000) 'q' in
    sent := !sent + String.length chunk;
    Tcp.Socket.send a chunk
  done;
  Sim.Engine.run engine;
  Alcotest.(check int) "bytes in = bytes out" !sent !total;
  let ca = Tcp.Socket.counters a and cb = Tcp.Socket.counters b in
  Alcotest.(check int) "tx accounting" !sent ca.bytes_out;
  Alcotest.(check int) "rx accounting" !sent cb.bytes_in

(* {1 Instrumentation} *)

let test_estimator_tracks_bytes () =
  let engine, conn = testbed () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  Tcp.Socket.on_readable b (fun () -> ignore (drain_to_string b));
  Tcp.Socket.send a (String.make 1000 'x');
  let ea = Tcp.Socket.estimator a in
  Alcotest.(check int) "unacked grows on send" 1000 (E2e.Estimator.unacked_size ea);
  Sim.Engine.run engine;
  Alcotest.(check int) "unacked drains on ack" 0 (E2e.Estimator.unacked_size ea);
  let eb = Tcp.Socket.estimator b in
  Alcotest.(check int) "unread drained by app" 0 (E2e.Estimator.unread_size eb);
  Alcotest.(check int) "ackdelay drained by acks" 0 (E2e.Estimator.ackdelay_size eb)

let test_estimator_tracks_syscall_units () =
  let engine, conn = testbed ~unit_mode:E2e.Units.Syscalls () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  Tcp.Socket.on_readable b (fun () -> ignore (drain_to_string b));
  (* three send() calls of different sizes = three units *)
  Tcp.Socket.send a (String.make 5000 'x');
  Tcp.Socket.send a "tiny";
  Tcp.Socket.send a (String.make 2000 'y');
  let ea = Tcp.Socket.estimator a in
  Alcotest.(check int) "three syscall units unacked" 3 (E2e.Estimator.unacked_size ea);
  Sim.Engine.run engine;
  Alcotest.(check int) "units drain with acks" 0 (E2e.Estimator.unacked_size ea)

let test_msg_ends_cross_receiver () =
  (* The receiver counts message boundaries (PSH markers), giving it
     syscall units without knowing the sender's call sizes. *)
  let engine, conn = testbed ~unit_mode:E2e.Units.Syscalls () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  let boundary_units = ref 0 in
  Tcp.Socket.on_readable b (fun () ->
      boundary_units := E2e.Estimator.unread_size (Tcp.Socket.estimator b);
      ignore (drain_to_string b));
  Tcp.Socket.send a (String.make 3000 'x');
  Sim.Engine.run engine;
  (* the last delivery saw one whole message pending *)
  Alcotest.(check int) "one message unit seen" 1 !boundary_units

let test_end_to_end_estimate_matches_ground_truth () =
  (* Deterministic request/response echo at a fixed rate, then check
     the §3.2 combination against directly measured latency. *)
  let engine, conn = testbed ~prop:(us 5) () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  Tcp.Socket.on_readable b (fun () ->
      let data = drain_to_string b in
      if String.length data > 0 then Tcp.Socket.send b (String.make (String.length data) 'r'));
  let latencies = ref [] in
  let outstanding = Queue.create () in
  Tcp.Socket.on_readable a (fun () ->
      let got = drain_to_string a in
      let rec pop n =
        if n >= 1000 then begin
          let t0 = Queue.pop outstanding in
          latencies := Sim.Time.to_ns (Sim.Engine.now engine) - t0 :: !latencies;
          pop (n - 1000)
        end
        else if n > 0 then Queue.push (Queue.pop outstanding) outstanding
      in
      pop (String.length got));
  (* issue 200 requests of 1000 bytes, 50us apart *)
  for i = 0 to 199 do
    ignore
      (Sim.Engine.schedule_at engine ~at:(us (i * 50)) (fun () ->
           Queue.push (Sim.Time.to_ns (Sim.Engine.now engine)) outstanding;
           Tcp.Socket.send a (String.make 1000 'q')))
  done;
  Sim.Engine.run engine;
  let measured =
    List.fold_left ( + ) 0 !latencies / List.length !latencies
  in
  match E2e.Estimator.peek_estimate (Tcp.Socket.estimator a) ~at:(Sim.Engine.now engine) with
  | Some { latency_ns = Some est; _ } ->
    let err = Float.abs (est -. float_of_int measured) /. float_of_int measured in
    if err > 0.25 then
      Alcotest.failf "estimate %.0fns vs measured %dns (err %.0f%%)" est measured
        (err *. 100.0)
  | _ -> Alcotest.fail "no estimate"

let test_exchange_option_flows () =
  let engine, conn = testbed ~exchange:(E2e.Exchange.Periodic (us 50)) () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  Tcp.Socket.on_readable b (fun () -> ignore (drain_to_string b));
  for i = 0 to 9 do
    ignore
      (Sim.Engine.schedule_at engine ~at:(us (i * 100)) (fun () ->
           Tcp.Socket.send a "req"))
  done;
  Sim.Engine.run engine;
  (* The server ingested remote snapshots, so it has a remote window. *)
  Alcotest.(check bool) "server saw client queue states" true
    (E2e.Estimator.remote_window (Tcp.Socket.estimator b) <> None)

(* A connection whose receiver [b] traces the shares its estimator
   accepts, and a [send ~at] that writes one small request from [a] at
   [at] and runs the engine until it has been delivered. *)
let share_counting_testbed exchange =
  let engine, conn = testbed ~exchange () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  let tr = Sim.Trace.create () in
  Sim.Trace.set_enabled tr true;
  Tcp.Socket.set_trace b tr;
  Tcp.Socket.on_readable b (fun () -> ignore (drain_to_string b));
  let send ~at =
    ignore (Sim.Engine.schedule_at engine ~at (fun () -> Tcp.Socket.send a "req"));
    Sim.Engine.run_until engine (at + us 30)
  in
  let shares () = List.length (Sim.Trace.find tr ~tag:"share") in
  (a, send, shares)

let test_exchange_on_demand_per_request () =
  let a, send, shares = share_counting_testbed E2e.Exchange.On_demand in
  send ~at:0;
  Alcotest.(check int) "nothing requested, nothing shared" 0 (shares ());
  Tcp.Socket.request_exchange a;
  send ~at:(us 100);
  send ~at:(us 200);
  Alcotest.(check int) "one share for one request" 1 (shares ());
  Tcp.Socket.request_exchange a;
  send ~at:(us 300);
  send ~at:(us 400);
  Alcotest.(check int) "the next request, one more" 2 (shares ())

let test_exchange_periodic_per_interval () =
  let _, send, shares = share_counting_testbed (E2e.Exchange.Periodic (us 100)) in
  List.iter (fun t -> send ~at:(us t)) [ 0; 40; 110; 160; 230 ];
  (* Attached at 0, 110 (110 >= 0 + 100) and 230 (>= 110 + 100); the
     interval restarts at each attach, so 160 is too soon. *)
  Alcotest.(check int) "one share per interval" 3 (shares ())

let test_hint_shares_flow () =
  let engine, conn = testbed () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  let tracker = E2e.Hints.tracker ~at:0 in
  Tcp.Socket.set_hint_tracker a tracker;
  Tcp.Socket.on_readable b (fun () -> ignore (drain_to_string b));
  E2e.Hints.create tracker ~at:0 1;
  Tcp.Socket.send a "request-1";
  Sim.Engine.run engine;
  E2e.Hints.create tracker ~at:(Sim.Engine.now engine) 1;
  Tcp.Socket.send a "request-2";
  Sim.Engine.run engine;
  Alcotest.(check bool) "server holds a hint window" true
    (Tcp.Socket.remote_hint_window b <> None)

let test_tso_super_segments () =
  (* With TSO the sender pays one transmit-path cost per super-segment
     while the wire still carries MSS packets and the receiver sees an
     intact stream. *)
  let engine = Sim.Engine.create () in
  let mk tso_max =
    {
      Tcp.Conn.socket = { Tcp.Socket.default_config with nagle = false; tso_max };
      tx_cost = 0;
      rx_seg_cost = 0;
      rx_batch_cost = 0;
      gro = { (Tcp.Gro.default_config ~mss:1448) with enabled = false };
    }
  in
  let conn =
    Tcp.Conn.create engine ~a:(mk (Some (64 * 1024))) ~b:(mk None) ()
  in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  let received = Buffer.create 4096 in
  Tcp.Socket.on_readable b (fun () -> Buffer.add_string received (drain_to_string b));
  let data = String.init 100_000 (fun i -> Char.chr (i mod 256)) in
  Tcp.Socket.send a data;
  Sim.Engine.run engine;
  Alcotest.(check bool) "stream intact" true (String.equal data (Buffer.contents received));
  let c = Tcp.Socket.counters a in
  (* 100000 / 65536 -> 2 stack segments instead of 70 *)
  Alcotest.(check int) "two super-segments" 2 c.segs_out;
  (* but the wire carried MSS packets *)
  Alcotest.(check bool) "wire packets ~ceil(n/mss)" true
    (Tcp.Link.packets (Tcp.Conn.link_ab conn) >= (100_000 + 1447) / 1448)

let test_event_tracing () =
  let engine, conn = testbed ~nagle_a:true () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  let tr = Sim.Trace.create () in
  Sim.Trace.set_enabled tr true;
  Tcp.Socket.set_trace a tr;
  Tcp.Socket.set_trace b tr;
  Tcp.Socket.on_readable b (fun () -> ignore (drain_to_string b));
  Tcp.Socket.send a "first";
  Tcp.Socket.send a "held-by-nagle";
  Sim.Engine.run engine;
  Tcp.Socket.close a;
  Sim.Engine.run engine;
  let tags tag = List.length (Sim.Trace.find tr ~tag) in
  Alcotest.(check bool) "tx events" true (tags "tx" >= 2);
  Alcotest.(check bool) "rx events" true (tags "rx" >= 2);
  Alcotest.(check bool) "ack events" true (tags "ack" >= 2);
  Alcotest.(check bool) "nagle hold recorded" true (tags "hold" >= 1);
  Alcotest.(check bool) "fin recorded" true (tags "fin" >= 1);
  (* disabled tracing emits nothing *)
  Sim.Trace.clear tr;
  Sim.Trace.set_enabled tr false;
  Tcp.Socket.send b "quiet";
  Sim.Engine.run engine;
  Alcotest.(check int) "silent when disabled" 0 (List.length (Sim.Trace.records tr))

let test_deterministic_replay () =
  let run () =
    let engine, conn = testbed () in
    let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
    Tcp.Socket.on_readable b (fun () ->
        let d = drain_to_string b in
        Tcp.Socket.send b (String.make (String.length d) 'e'));
    Tcp.Socket.on_readable a (fun () -> ignore (drain_to_string a));
    for i = 0 to 20 do
      ignore
        (Sim.Engine.schedule_at engine ~at:(us (i * 37)) (fun () ->
             Tcp.Socket.send a (String.make ((i * 131) mod 3000) 'p')))
    done;
    Sim.Engine.run engine;
    (Sim.Engine.now engine, Tcp.Conn.total_packets conn, (Tcp.Socket.counters a).bytes_out)
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check (triple int int int)) "bit-identical replay" r1 r2

let suite =
  [
    ( "tcp.socket",
      [
        Alcotest.test_case "basic transfer" `Quick test_basic_transfer;
        Alcotest.test_case "large transfer segmentation" `Quick
          test_large_transfer_segmentation;
        Alcotest.test_case "bidirectional" `Quick test_bidirectional;
        Alcotest.test_case "nagle holds small write" `Quick
          test_nagle_holds_second_small_write;
        Alcotest.test_case "nodelay immediate" `Quick test_nodelay_sends_immediately;
        Alcotest.test_case "nagle coalesces" `Quick test_nagle_coalesces_held_writes;
        Alcotest.test_case "runtime toggle releases" `Quick test_runtime_nagle_toggle;
        Alcotest.test_case "delayed ack by timer" `Quick test_delayed_ack_pure_ack_count;
        Alcotest.test_case "ack every second segment" `Quick test_ack_every_second_segment;
        Alcotest.test_case "flow control blocks/resumes" `Quick
          test_flow_control_blocks_and_resumes;
        Alcotest.test_case "byte conservation" `Quick test_byte_conservation;
        Alcotest.test_case "TSO super-segments" `Quick test_tso_super_segments;
        Alcotest.test_case "event tracing" `Quick test_event_tracing;
        Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
      ] );
    ( "tcp.instrumentation",
      [
        Alcotest.test_case "byte queue tracking" `Quick test_estimator_tracks_bytes;
        Alcotest.test_case "syscall unit tracking" `Quick
          test_estimator_tracks_syscall_units;
        Alcotest.test_case "message boundaries cross the wire" `Quick
          test_msg_ends_cross_receiver;
        Alcotest.test_case "estimate matches ground truth" `Quick
          test_end_to_end_estimate_matches_ground_truth;
        Alcotest.test_case "exchange option flows" `Quick test_exchange_option_flows;
        Alcotest.test_case "on-demand exchange per request" `Quick
          test_exchange_on_demand_per_request;
        Alcotest.test_case "periodic exchange per interval" `Quick
          test_exchange_periodic_per_interval;
        Alcotest.test_case "hint shares flow" `Quick test_hint_shares_flow;
      ] );
  ]
