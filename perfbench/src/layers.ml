(* The per-layer cost table.  Each layer's unit cost comes from driving
   its public functions, from the benchmark, with input shaped like the
   workload's (message size, bytes per delivery, heap depth, trace
   records); the traced run supplies how many such operations one
   request costs.  Unit cost times operations per request gives the
   layer's share of the wall time per request. *)

(* What the traced run says about one workload. *)
type counts = {
  requests : float;  (** lifetime completions of the traced run *)
  conns : int;
  sharded : bool;
  binlog : bool;
  tx_segments : float;
  rx_segments : float;
  shares : float;
  decisions : float;
  records : float;
  packets_per_request : float;
      (** from the run's result; for fleets (whose results carry no
          packet count) tx segments plus acks per request *)
}

(* Input shapes for the drivers. *)
type shape = {
  value_size : int;
  heap_depth : int;
  rate_rps : float;
  seg_bytes : int;  (** mean payload bytes per received segment *)
  chunk_bytes : int;  (** mean payload bytes per receive delivery *)
  trace_sample : Sim.Trace.record array;
  scratch_file : string;  (** where the trace-writer driver writes *)
}

type phase =
  | Run  (** paid while requests flow: attributed to [wall_us_per_req] *)
  | Setup  (** paid while building the fleet: moves [setup_s] *)

type layer = {
  name : string;
  phase : phase;
  ops_per_req : counts -> float;
  driver : shape -> unit -> int;
      (** set up (untimed), then return an operation that does some units
          of work and says how many *)
}

let per_req c x = if c.requests > 0.0 then x /. c.requests else 0.0

(* ---- drivers ---- *)

let workload_of shape =
  { Loadgen.Workload.paper_set_only with value_size = shape.value_size }

let commands shape n =
  let rng = Sim.Rng.create ~seed:7 in
  let wl = workload_of shape in
  Array.init n (fun _ -> Loadgen.Workload.next_command wl ~rng)

let request_wire shape =
  Kv.Resp.encode (Kv.Command.to_resp (commands shape 1).(0))

(* Sub-strings of [s] of at most [n] bytes, as a receive path delivers
   them. *)
let chunks s n =
  let n = max 1 n in
  let len = String.length s in
  List.init ((len + n - 1) / n) (fun i -> String.sub s (i * n) (min n (len - (i * n))))

let batch = 64

let engine_driver shape =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:3 in
  (* Keep [heap_depth] far-future events pending, like the timers a
     run keeps armed, so each schedule/step works at that depth. *)
  for _ = 1 to shape.heap_depth do
    ignore
      (Sim.Engine.schedule e ~after:(Sim.Time.sec 3600 + Sim.Rng.int rng ~bound:1_000_000_000) ignore)
  done;
  let delays = Array.init 1024 (fun _ -> Sim.Rng.int rng ~bound:10_000) in
  let i = ref 0 in
  fun () ->
    for _ = 1 to batch do
      ignore (Sim.Engine.schedule e ~after:delays.(!i land 1023) ignore);
      incr i;
      ignore (Sim.Engine.step e)
    done;
    batch

(* One request/response exchange over a Tcp.Conn pair per call; the
   unit is one wire packet, and the engine events it takes are
   included. *)
let conn_driver shape =
  let e = Sim.Engine.create () in
  let host =
    {
      Tcp.Conn.default_host with
      socket = { Tcp.Socket.default_config with nagle = false };
    }
  in
  let c = Tcp.Conn.create e ~a:host ~b:host () in
  let a = Tcp.Conn.sock_a c and b = Tcp.Conn.sock_b c in
  let request = request_wire shape in
  let req_len = String.length request in
  let got = ref 0 in
  Tcp.Socket.on_readable b (fun () ->
      let n = Tcp.Socket.recv_available b in
      ignore (Tcp.Socket.recv b n);
      got := !got + n;
      while !got >= req_len do
        got := !got - req_len;
        Tcp.Socket.send b "+OK\r\n"
      done);
  Tcp.Socket.on_readable a (fun () -> ignore (Tcp.Socket.recv a (Tcp.Socket.recv_available a)));
  fun () ->
    let p0 = Tcp.Conn.total_packets c in
    Tcp.Socket.send a request;
    let steps = ref 0 in
    while !steps < 100_000 && Sim.Engine.step e do
      incr steps
    done;
    max 1 (Tcp.Conn.total_packets c - p0)

let bytebuf_driver shape =
  let buf = Tcp.Bytebuf.create () in
  let seg = String.make (max 1 shape.seg_bytes) 'x' in
  fun () ->
    for _ = 1 to batch do
      Tcp.Bytebuf.append buf seg;
      ignore (Tcp.Bytebuf.read buf shape.seg_bytes)
    done;
    batch

(* Encode the workload's request and its reply, and parse both from
   chunks of the size the receive path delivers. *)
let resp_driver shape =
  let value = Kv.Command.to_resp (commands shape 1).(0) in
  let req_chunks = chunks (Kv.Resp.encode value) shape.chunk_bytes in
  let reply = Kv.Resp.Simple "OK" in
  let reply_wire = Kv.Resp.encode reply in
  let parser = Kv.Resp.Parser.create () in
  let expect_value () =
    match Kv.Resp.Parser.next parser with
    | Ok (Some _) -> ()
    | Ok None -> failwith "kv.resp driver: incomplete value"
    | Error msg -> failwith ("kv.resp driver: " ^ msg)
  in
  fun () ->
    ignore (Kv.Resp.encode value);
    List.iter (Kv.Resp.Parser.feed parser) req_chunks;
    expect_value ();
    ignore (Kv.Resp.encode reply);
    Kv.Resp.Parser.feed parser reply_wire;
    expect_value ();
    1

(* Successive shares of a peer whose queues keep moving, all plausible
   in sequence. *)
let shares n =
  let peer = E2e.Estimator.create ~at:Sim.Time.zero in
  Array.init n (fun i ->
      let at = Sim.Time.us (10 * (i + 1)) in
      E2e.Estimator.track_unacked peer ~at (if i mod 2 = 0 then 1 else -1);
      E2e.Estimator.track_unread peer ~at (if i mod 3 = 0 then 1 else 0);
      E2e.Estimator.track_ackdelay peer ~at (if i mod 2 = 0 then 1 else -1);
      (at, E2e.Estimator.local_snapshot peer ~at))

let options_driver _shape =
  let s = shares 256 in
  let i = ref 0 in
  fun () ->
    let _, triple = s.(!i land 255) in
    incr i;
    (match Tcp.Options.decode (Tcp.Options.encode [ Tcp.Options.E2e_state triple ]) with
    | Ok _ -> ()
    | Error msg -> failwith ("tcp.options driver: " ^ msg));
    1

let exchange_driver _shape =
  let s = shares 256 in
  let i = ref 0 in
  fun () ->
    let _, prev = s.(!i land 255) and _, cur = s.((!i + 1) land 255) in
    incr i;
    (match E2e.Exchange.decode (E2e.Exchange.encode cur) with
    | Ok wire -> ignore (E2e.Exchange.unwrap ~prev ~cur:wire)
    | Error msg -> failwith ("e2e.exchange driver: " ^ msg));
    1

let n_shares = 4096

let estimator_driver _shape =
  let s = shares n_shares in
  fun () ->
    let est = E2e.Estimator.create ~at:Sim.Time.zero in
    Array.iter (fun (at, triple) -> E2e.Estimator.ingest_remote est ~at triple) s;
    if E2e.Estimator.rejected_shares est > 0 then failwith "e2e.estimator driver: share rejected";
    n_shares

(* One dynamic-control decision for a one-connection group: close the
   estimation window, score the arm that ran, pick the next. *)
let control_driver _shape =
  let s = shares n_shares in
  let d = Loadgen.Control.default_dynamic in
  let rng = Sim.Rng.create ~seed:5 in
  let est = ref (E2e.Estimator.create ~at:Sim.Time.zero) in
  let tog =
    E2e.Toggler.create ~epsilon:d.epsilon ~ewma_alpha:d.ewma_alpha
      ~min_observations:d.min_observations ~policy:d.policy ~rng ~initial:E2e.Toggler.Batch_off ()
  in
  let i = ref 0 in
  fun () ->
    if !i = n_shares then begin
      est := E2e.Estimator.create ~at:Sim.Time.zero;
      i := 0
    end;
    let at, triple = s.(!i) in
    incr i;
    E2e.Estimator.track_unacked !est ~at 1;
    E2e.Estimator.ingest_remote !est ~at triple;
    E2e.Estimator.track_unacked !est ~at:(at + 1) (-1);
    (match E2e.Estimator.estimate !est ~at:(at + 2) with
    | Some { latency_ns = Some latency_ns; throughput; _ } ->
      E2e.Toggler.observe tog ~mode:(E2e.Toggler.mode tog) { latency_ns; throughput }
    | _ -> ());
    ignore (E2e.Toggler.decide tog);
    1

let store_driver shape =
  let cmds = commands shape 1024 in
  let store = Kv.Store.create () in
  let i = ref 0 in
  fun () ->
    ignore (Kv.Command.execute store ~now:Sim.Time.zero cmds.(!i land 1023));
    incr i;
    1

let arrival_driver shape =
  let a = Loadgen.Arrival.poisson ~rng:(Sim.Rng.create ~seed:11) ~rate_rps:shape.rate_rps in
  fun () ->
    for _ = 1 to batch do
      ignore (Loadgen.Arrival.next_gap a ~now:Sim.Time.zero)
    done;
    batch

let workload_driver shape =
  let wl = workload_of shape in
  let rng = Sim.Rng.create ~seed:13 in
  fun () ->
    ignore (Loadgen.Workload.next_command wl ~rng);
    1

let labels = Array.init 4096 (fun i -> Printf.sprintf "t%d/c%d" (i land 3) i)

let steer_driver _shape =
  let st = Shard.Steer.create ~shards:4 in
  fun () ->
    Array.iter (fun l -> ignore (Shard.Steer.lookup st l)) labels;
    Array.length labels

let lb_driver _shape =
  let lb = Shard.Lb.create ~policy:Shard.Lb.Least_loaded ~shards:4 in
  fun () ->
    Array.iter (fun key -> ignore (Shard.Lb.assign lb ~key)) labels;
    for s = 0 to 3 do
      while Shard.Lb.load lb s > 0 do
        Shard.Lb.release lb ~shard:s
      done
    done;
    Array.length labels

(* Binary.write of records sampled from the workload's own trace. *)
let trace_driver shape =
  let sample =
    if Array.length shape.trace_sample > 0 then shape.trace_sample
    else [| { Sim.Trace.at = 0; id = "c0"; event = Request_done { latency_us = 1.0 } } |]
  in
  let oc = open_out_bin shape.scratch_file in
  let w = Sim.Trace.Binary.writer oc in
  let n = Array.length sample in
  let i = ref 0 in
  fun () ->
    (* Rewind the file now and then so it stays small. *)
    if !i land 0xFFFFF = 0 then seek_out oc 0;
    for _ = 1 to batch do
      Sim.Trace.Binary.write w sample.(!i mod n);
      incr i
    done;
    batch

(* ---- the table ---- *)

let layers =
  [
    {
      name = "sim.engine";
      phase = Run;
      (* Events off the TCP path (those are inside tcp.conn's unit
         cost): the arrival timer, the client and server application
         work items, and control ticks. *)
      ops_per_req = (fun c -> 3.0 +. per_req c c.decisions);
      driver = engine_driver;
    };
    { name = "tcp.conn"; phase = Run; ops_per_req = (fun c -> c.packets_per_request); driver = conn_driver };
    {
      name = "tcp.bytebuf";
      phase = Run;
      ops_per_req = (fun c -> per_req c (c.tx_segments +. c.rx_segments));
      driver = bytebuf_driver;
    };
    { name = "kv.resp"; phase = Run; ops_per_req = (fun _ -> 1.0); driver = resp_driver };
    { name = "tcp.options"; phase = Run; ops_per_req = (fun c -> per_req c c.shares); driver = options_driver };
    { name = "e2e.exchange"; phase = Run; ops_per_req = (fun c -> per_req c c.shares); driver = exchange_driver };
    { name = "e2e.estimator"; phase = Run; ops_per_req = (fun c -> per_req c c.shares); driver = estimator_driver };
    { name = "loadgen.control"; phase = Run; ops_per_req = (fun c -> per_req c c.decisions); driver = control_driver };
    { name = "kv.store"; phase = Run; ops_per_req = (fun _ -> 1.0); driver = store_driver };
    { name = "loadgen.arrival"; phase = Run; ops_per_req = (fun _ -> 1.0); driver = arrival_driver };
    { name = "loadgen.workload"; phase = Run; ops_per_req = (fun _ -> 1.0); driver = workload_driver };
    {
      name = "shard.steer";
      phase = Setup;
      ops_per_req = (fun c -> if c.sharded then per_req c (float_of_int c.conns) else 0.0);
      driver = steer_driver;
    };
    {
      name = "shard.lb";
      phase = Setup;
      ops_per_req = (fun c -> if c.sharded then per_req c (float_of_int c.conns) else 0.0);
      driver = lb_driver;
    };
    {
      name = "sim.trace";
      phase = Run;
      ops_per_req = (fun c -> if c.binlog then per_req c c.records else 0.0);
      driver = trace_driver;
    };
  ]

type unit_cost = { ns_per_op : float; words_per_op : float }

(* Runs [op] in batches for about [budget_s] seconds and reports the
   median batch's time per unit and the words per unit over all
   batches.  A batch lasts about a fiftieth of the budget. *)
let time_op ~budget_s op =
  let reps = ref 1 in
  let batch () =
    let t0 = Unix.gettimeofday () in
    let u = ref 0 in
    for _ = 1 to !reps do
      u := !u + op ()
    done;
    (Unix.gettimeofday () -. t0, !u)
  in
  let rec calibrate () =
    if fst (batch ()) < budget_s /. 50.0 && !reps < 1 lsl 24 then begin
      reps := !reps * 2;
      calibrate ()
    end
  in
  calibrate ();
  let units = ref 0 and samples = ref [] in
  let start = Gc.counters () in
  let t_end = Unix.gettimeofday () +. budget_s in
  while Unix.gettimeofday () < t_end || List.length !samples < 5 do
    let dt, u = batch () in
    units := !units + u;
    samples := (dt *. 1e9 /. float_of_int u) :: !samples
  done;
  let gc = Measure.since start ~wall_s:0.0 in
  { ns_per_op = Measure.median !samples; words_per_op = Measure.alloc_words gc /. float_of_int !units }

let us_per_req ~ops_per_req ~ns_per_op = ops_per_req *. ns_per_op /. 1000.0

type row = { layer : layer; cost : unit_cost; ops : float; us : float }

let measure_all ~budget_s shape counts =
  List.map
    (fun layer ->
      let cost = time_op ~budget_s (layer.driver shape) in
      let ops = layer.ops_per_req counts in
      { layer; cost; ops; us = us_per_req ~ops_per_req:ops ~ns_per_op:cost.ns_per_op })
    layers

(* The share of the wall time per request the run-phase layers account
   for.  Setup-phase layers are paid before requests flow, so they are
   left out. *)
let attributed_share rows ~wall_us_per_req =
  let sum = List.fold_left (fun acc r -> if r.layer.phase = Run then acc +. r.us else acc) 0.0 rows in
  sum /. wall_us_per_req
