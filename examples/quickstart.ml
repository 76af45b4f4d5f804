(* Quickstart: the paper's estimation machinery in four small steps.

   1. Track a queue with Algorithm 1 and read averages with Algorithm 2.
   2. Use the hints API to measure request/response latency directly.
   3. Share queue states over the wire (the 36-byte exchange payload).
   4. Run a real byte stream through the simulated TCP stack and read
      the end-to-end estimate off the socket's estimator.

   Run with: dune exec examples/quickstart.exe *)

let pf = Printf.printf

let step1_littles_law () =
  pf "== Step 1: Little's law over a queue (Algorithms 1 and 2) ==\n";
  (* The paper's worked example: one item for 10us, then four for 20us. *)
  let q = E2e.Queue_state.create ~at:Sim.Time.zero in
  E2e.Queue_state.track q ~at:Sim.Time.zero 1;
  E2e.Queue_state.track q ~at:(Sim.Time.us 10) 3;
  let prev : E2e.Queue_state.share =
    { time = Sim.Time.zero; total = 0; integral = 0.0 }
  in
  let cur = E2e.Queue_state.snapshot q ~at:(Sim.Time.us 30) in
  match E2e.Queue_state.get_avgs ~prev ~cur with
  | Some avgs ->
    pf "  average occupancy Q = %.1f items (paper: 3.0)\n" avgs.q_avg;
    pf "  departures so far   = %d\n" cur.total
  | None -> assert false

let step2_hints () =
  pf "\n== Step 2: application hints (Section 3.3) ==\n";
  let h = E2e.Hints.tracker ~at:Sim.Time.zero in
  (* create(n) when issuing requests, complete(n) when responses land *)
  E2e.Hints.create h ~at:Sim.Time.zero 1;
  E2e.Hints.complete h ~at:(Sim.Time.us 150) 1;
  E2e.Hints.create h ~at:(Sim.Time.us 200) 1;
  E2e.Hints.complete h ~at:(Sim.Time.us 450) 1;
  let prev : E2e.Queue_state.share =
    { time = Sim.Time.zero; total = 0; integral = 0.0 }
  in
  let cur = E2e.Hints.share h ~at:(Sim.Time.us 500) in
  (match E2e.Hints.avgs ~prev ~cur with
  | Some { latency_ns = Some l; throughput; _ } ->
    pf "  mean end-to-end latency = %.0f us ((150 + 250) / 2 = 200)\n" (l /. 1e3);
    pf "  throughput              = %.0f requests/s\n" throughput
  | _ -> assert false)

let step3_exchange () =
  pf "\n== Step 3: the 36-byte metadata exchange (Section 3.2) ==\n";
  let e = E2e.Estimator.create ~at:Sim.Time.zero in
  E2e.Estimator.track_unacked e ~at:Sim.Time.zero 1000;
  E2e.Estimator.track_unacked e ~at:(Sim.Time.us 40) (-1000);
  let snapshot = E2e.Estimator.local_snapshot e ~at:(Sim.Time.us 50) in
  let wire = E2e.Exchange.encode snapshot in
  pf "  encoded %d bytes: %s...\n" (String.length wire)
    (String.concat ""
       (List.map (fun i -> Printf.sprintf "%02x" (Char.code wire.[i])) [ 0; 1; 2; 3; 4; 5; 6; 7 ]));
  match E2e.Exchange.decode wire with
  | Ok triple -> pf "  decoded: unacked total=%d (1000 bytes acked)\n" triple.unacked.total
  | Error e -> pf "  decode failed: %s\n" e

let step4_stack () =
  pf "\n== Step 4: estimate a real flow through the simulated stack ==\n";
  let engine = Sim.Engine.create () in
  let conn = Tcp.Conn.create engine () in
  let client = Tcp.Conn.sock_a conn and server = Tcp.Conn.sock_b conn in
  (* server echoes a short confirmation per 1000-byte request *)
  Tcp.Socket.on_readable server (fun () ->
      let data = Tcp.Socket.recv server (Tcp.Socket.recv_available server) in
      if String.length data > 0 then Tcp.Socket.send server "ok");
  Tcp.Socket.on_readable client (fun () ->
      ignore (Tcp.Socket.recv client (Tcp.Socket.recv_available client)));
  (* issue 100 requests, one every 100us *)
  for i = 0 to 99 do
    Sim.Engine.post_at engine ~at:(Sim.Time.us (i * 100)) (fun () ->
        Tcp.Socket.send client (String.make 1000 'q'))
  done;
  Sim.Engine.run engine;
  match
    E2e.Estimator.peek_estimate (Tcp.Socket.estimator client) ~at:(Sim.Engine.now engine)
  with
  | Some { latency_ns = Some l; throughput; _ } ->
    pf "  estimated end-to-end latency: %.1f us\n" (l /. 1e3);
    pf "  estimated throughput:         %.0f KB/s (byte units)\n" (throughput /. 1e3);
    pf "  packets on the wire:          %d\n" (Tcp.Conn.total_packets conn)
  | _ -> pf "  (no estimate)\n"

let () =
  step1_littles_law ();
  step2_hints ();
  step3_exchange ();
  step4_stack ()
