(* Tests for connection teardown: the RFC 793 FIN state machine from
   ESTABLISHED onward. *)

let testbed () =
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
  let conn = Tcp.Conn.create engine ~a:host ~b:host () in
  (engine, Tcp.Conn.sock_a conn, Tcp.Conn.sock_b conn)

let drain sock = Tcp.Socket.recv sock (Tcp.Socket.recv_available sock)

let check_state what expected sock =
  Alcotest.(check string) what expected (Tcp.Socket.state_string sock)

let test_active_close_full_handshake () =
  let engine, a, b = testbed () in
  Tcp.Socket.on_readable b (fun () -> ignore (drain b));
  check_state "a established" "established" a;
  Tcp.Socket.close a;
  check_state "a fin-wait-1" "fin-wait-1" a;
  Sim.Engine.run engine;
  (* b acked the FIN and noticed the close *)
  check_state "b close-wait" "close-wait" b;
  check_state "a fin-wait-2" "fin-wait-2" a;
  Alcotest.(check bool) "b sees eof" true (Tcp.Socket.eof b);
  (* passive side closes too *)
  Tcp.Socket.close b;
  check_state "b last-ack" "last-ack" b;
  Sim.Engine.run engine;
  check_state "b closed" "closed" b;
  check_state "a closed after time-wait" "closed" a;
  Alcotest.(check bool) "a sees eof" true (Tcp.Socket.eof a)

let test_fin_waits_for_queued_data () =
  let engine, a, b = testbed () in
  let received = Buffer.create 65536 in
  Tcp.Socket.on_readable b (fun () -> Buffer.add_string received (drain b));
  let n = 50_000 in
  Tcp.Socket.send a (String.make n 'd');
  (* close immediately: the FIN must not jump the queue *)
  Tcp.Socket.close a;
  Sim.Engine.run engine;
  Alcotest.(check int) "all data delivered before FIN" n (Buffer.length received);
  Alcotest.(check bool) "b got eof after data" true (Tcp.Socket.eof b);
  (* the FIN takes a sequence number but is no payload byte *)
  Alcotest.(check int) "bytes out" n (Tcp.Socket.counters a).bytes_out;
  Alcotest.(check int) "bytes in" n (Tcp.Socket.counters b).bytes_in

let test_send_after_close_rejected () =
  let _engine, a, _b = testbed () in
  Tcp.Socket.close a;
  Alcotest.check_raises "send after close"
    (Invalid_argument "Socket.send: socket is closing or closed") (fun () ->
      Tcp.Socket.send a "late")

let test_close_idempotent () =
  let engine, a, b = testbed () in
  Tcp.Socket.on_readable b (fun () -> ignore (drain b));
  Tcp.Socket.close a;
  Tcp.Socket.close a;
  Tcp.Socket.close a;
  Sim.Engine.run engine;
  check_state "still fin-wait-2" "fin-wait-2" a;
  (* only one FIN consumed sequence space: closing b completes cleanly *)
  Tcp.Socket.close b;
  Sim.Engine.run engine;
  check_state "closed" "closed" b

let test_half_close_allows_reverse_data () =
  (* After a closes, b can keep sending; a keeps receiving. *)
  let engine, a, b = testbed () in
  let got = Buffer.create 256 in
  Tcp.Socket.on_readable a (fun () -> Buffer.add_string got (drain a));
  Tcp.Socket.on_readable b (fun () -> ignore (drain b));
  Tcp.Socket.close a;
  Sim.Engine.run engine;
  Tcp.Socket.send b "data flowing the other way";
  Sim.Engine.run engine;
  Alcotest.(check string) "reverse data delivered" "data flowing the other way"
    (Buffer.contents got);
  Alcotest.(check bool) "a not at eof (peer still open)" false (Tcp.Socket.eof a)

let test_simultaneous_close () =
  let engine, a, b = testbed () in
  Tcp.Socket.on_readable a (fun () -> ignore (drain a));
  Tcp.Socket.on_readable b (fun () -> ignore (drain b));
  (* both close before seeing each other's FIN *)
  Tcp.Socket.close a;
  Tcp.Socket.close b;
  Sim.Engine.run engine;
  check_state "a closed" "closed" a;
  check_state "b closed" "closed" b

let test_fin_survives_loss () =
  (* Drop the first transmission of everything; the FIN must be
     retransmitted like data and the handshake still complete. *)
  let engine, a, b = testbed () in
  Tcp.Socket.on_readable b (fun () -> ignore (drain b));
  let drop_next = ref 1 in
  let orig = ref (fun _ -> ()) in
  let tap seg =
    if !drop_next > 0 then decr drop_next else !orig seg
  in
  (* rewire a's transmit through the dropper *)
  let engine_link = engine in
  ignore engine_link;
  let inner seg = Tcp.Socket.receive_segment b seg in
  orig := inner;
  Tcp.Socket.set_transmit a tap;
  Tcp.Socket.close a;
  (* first FIN dropped; the RTO resends it *)
  Sim.Engine.run_until engine (Sim.Time.sec 2);
  check_state "handshake completed despite loss" "fin-wait-2" a;
  Alcotest.(check bool) "retransmitted" true ((Tcp.Socket.counters a).retransmits >= 1)

let test_eof_after_reading_tail () =
  let engine, a, b = testbed () in
  (* no reader on b: data sits in the buffer *)
  Tcp.Socket.send a "tail";
  Tcp.Socket.close a;
  Sim.Engine.run engine;
  Alcotest.(check bool) "not eof while data unread" false (Tcp.Socket.eof b);
  Alcotest.(check string) "tail readable" "tail" (drain b);
  Alcotest.(check bool) "eof after draining" true (Tcp.Socket.eof b)

let suite =
  [
    ( "tcp.teardown",
      [
        Alcotest.test_case "active close handshake" `Quick test_active_close_full_handshake;
        Alcotest.test_case "FIN waits for queued data" `Quick test_fin_waits_for_queued_data;
        Alcotest.test_case "send after close rejected" `Quick test_send_after_close_rejected;
        Alcotest.test_case "close is idempotent" `Quick test_close_idempotent;
        Alcotest.test_case "half-close keeps reverse path" `Quick
          test_half_close_allows_reverse_data;
        Alcotest.test_case "simultaneous close" `Quick test_simultaneous_close;
        Alcotest.test_case "FIN survives loss" `Quick test_fin_survives_loss;
        Alcotest.test_case "eof after reading the tail" `Quick test_eof_after_reading_tail;
      ] );
  ]
