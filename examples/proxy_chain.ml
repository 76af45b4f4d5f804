(* Estimation across a two-hop topology: client -> proxy -> server.

   The paper's estimates are per-connection.  A proxy that forwards
   requests has two connections, each with its own three-queue
   estimate; the application-perceived latency is their composition
   plus the proxy's own processing.  This example builds the chain
   from the public API, measures ground truth at the client, and
   compares it with the sum of the two per-hop estimates — showing
   both what composes (queueing and transport) and what doesn't (the
   proxy's compute time, which the paper's L deliberately excludes).

   Run with: dune exec examples/proxy_chain.exe *)

let pf = Printf.printf

let proxy_cost = Sim.Time.us 4

let () =
  let engine = Sim.Engine.create () in
  (* Proxies set TCP_NODELAY: a store-and-forward hop that lets Nagle
     hold its sub-MSS forwards serializes at one request per RTT and
     collapses - try flipping [nagle] to true to watch it happen. *)
  let host =
    {
      Tcp.Conn.default_host with
      socket = { Tcp.Socket.default_config with nagle = false };
    }
  in
  (* hop 1: client <-> proxy; hop 2: proxy <-> server *)
  let hop1 = Tcp.Conn.create engine ~a:host ~b:host () in
  let hop2 = Tcp.Conn.create engine ~a:host ~b:host () in
  let client_sock = Tcp.Conn.sock_a hop1 in
  let proxy_in = Tcp.Conn.sock_b hop1 in
  let proxy_out = Tcp.Conn.sock_a hop2 in
  let server_sock = Tcp.Conn.sock_b hop2 in
  let proxy_cpu = Sim.Cpu.create engine in
  (* the server: echo a short confirmation per fixed-size request *)
  let request_size = 1_000 in
  let served = ref 0 in
  Tcp.Socket.on_readable server_sock (fun () ->
      let data = Tcp.Socket.recv server_sock (Tcp.Socket.recv_available server_sock) in
      let n = String.length data / request_size in
      for _ = 1 to n do
        incr served;
        Tcp.Socket.send server_sock "ok"
      done);
  (* the proxy: byte-level store-and-forward with a per-chunk cost *)
  let forward src dst () =
    let data = Tcp.Socket.recv src (Tcp.Socket.recv_available src) in
    if String.length data > 0 then
      Sim.Cpu.run proxy_cpu ~cost:proxy_cost (fun () -> Tcp.Socket.send dst data)
  in
  Tcp.Socket.on_readable proxy_in (forward proxy_in proxy_out);
  Tcp.Socket.on_readable proxy_out (forward proxy_out proxy_in);
  (* the client: fixed-rate requests, ground-truth latency per reply *)
  let outstanding = Queue.create () in
  let latencies = Sim.Stats.Summary.create () in
  Tcp.Socket.on_readable client_sock (fun () ->
      let data = Tcp.Socket.recv client_sock (Tcp.Socket.recv_available client_sock) in
      for _ = 1 to String.length data / 2 do
        let t0 = Queue.pop outstanding in
        Sim.Stats.Summary.add latencies
          (Sim.Time.to_us (Sim.Time.diff (Sim.Engine.now engine) t0))
      done);
  let n_requests = 2_000 in
  for i = 0 to n_requests - 1 do
    Sim.Engine.post_at engine ~at:(Sim.Time.us (i * 40)) (fun () ->
        Queue.push (Sim.Engine.now engine) outstanding;
        Tcp.Socket.send client_sock (String.make request_size 'r'))
  done;
  Sim.Engine.run engine;
  let at = Sim.Engine.now engine in
  let hop_estimate sock =
    match E2e.Estimator.peek_estimate (Tcp.Socket.estimator sock) ~at with
    | Some { latency_ns = Some l; _ } -> l /. 1e3
    | _ -> nan
  in
  let hop1_us = hop_estimate client_sock in
  let hop2_us = hop_estimate proxy_out in
  pf "requests served by the origin : %d / %d\n" !served n_requests;
  pf "measured end-to-end (client)  : %8.1f us mean\n" (Sim.Stats.Summary.mean latencies);
  pf "hop 1 estimate (client-proxy) : %8.1f us\n" hop1_us;
  pf "hop 2 estimate (proxy-server) : %8.1f us\n" hop2_us;
  pf "sum of hop estimates          : %8.1f us\n" (hop1_us +. hop2_us);
  pf "proxy compute (excluded by L) : %8.1f us per direction\n"
    (Sim.Time.to_us proxy_cost);
  pf "\nPer-connection estimates compose across hops: their sum tracks the\n";
  pf "measured end-to-end latency up to the proxy's own processing time,\n";
  pf "which Section 3.2's L excludes by design (it shows up instead in the\n";
  pf "next hop's queues once the proxy becomes the bottleneck).\n"
