(* Dynamic batching over a load ramp, built from the public API pieces
   (engine, stack, KV server/client, estimator, epsilon-greedy toggler).

   The offered load ramps 30k -> 140k requests/s in four stages.  At
   low load the controller should keep Nagle off (the Redis default);
   past the cutoff it should flip it on — without being told where the
   cutoff is, purely from the exchanged queue-state estimates.

   Run with: dune exec examples/dynamic_toggle.exe *)

let pf = Printf.printf

let stage_len = Sim.Time.ms 150
let stages = [ 30e3; 70e3; 110e3; 140e3 ]
let tick = Sim.Time.ms 1

let () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:7 in
  let conn = Tcp.Conn.create engine () in
  let sock_client = Tcp.Conn.sock_a conn and sock_server = Tcp.Conn.sock_b conn in
  let server_cpu = Sim.Cpu.create engine and client_cpu = Sim.Cpu.create engine in
  let server =
    Kv.Server.create engine ~cpu:server_cpu ~socket:sock_server Kv.Server.default_config
  in
  let client =
    Kv.Client.create engine ~cpu:client_cpu ~socket:sock_client Kv.Client.default_config
  in
  let workload = Loadgen.Workload.paper_set_only in
  Loadgen.Workload.prepopulate workload (Kv.Server.store server)
    ~now:(Sim.Engine.now engine);
  (* Open-loop driver whose rate is looked up per request. *)
  let current_rate = ref (List.hd stages) in
  let wl_rng = Sim.Rng.split rng in
  let stage_summary = ref (Sim.Stats.Summary.create ()) in
  let rec drive () =
    let gap = Sim.Rng.exponential rng ~mean:(1e9 /. !current_rate) in
    Sim.Engine.post engine ~after:(int_of_float gap) (fun () ->
        Kv.Client.request client
          (Loadgen.Workload.next_command workload ~rng:wl_rng)
          ~on_complete:(fun ~latency _ ->
            Sim.Stats.Summary.add !stage_summary (Sim.Time.to_us latency));
        drive ())
  in
  drive ();
  (* The Section-5 controller: estimate -> observe -> decide, per tick. *)
  let toggler =
    E2e.Toggler.create
      ~policy:(E2e.Policy.Throughput_under_slo { slo_ns = E2e.Policy.default_slo_ns })
      ~rng:(Sim.Rng.split rng) ~initial:E2e.Toggler.Batch_off ()
  in
  let estimator = Tcp.Socket.estimator sock_client in
  let on_ticks = ref 0 and total_ticks = ref 0 in
  let rec control () =
    let at = Sim.Engine.now engine in
    let mode = E2e.Toggler.mode toggler in
    (match E2e.Estimator.estimate estimator ~at with
    | Some { latency_ns = Some latency_ns; throughput; _ } when throughput > 0.0 ->
      E2e.Toggler.observe toggler ~mode { E2e.Policy.latency_ns; throughput }
    | Some _ | None -> ());
    let mode' = E2e.Toggler.decide toggler in
    let enabled = mode' = E2e.Toggler.Batch_on in
    Tcp.Socket.set_nagle_enabled sock_client enabled;
    Tcp.Socket.set_nagle_enabled sock_server enabled;
    Tcp.Socket.kick sock_client;
    Tcp.Socket.kick sock_server;
    incr total_ticks;
    if enabled then incr on_ticks;
    Sim.Engine.post engine ~after:tick control
  in
  Sim.Engine.post engine ~after:tick control;
  (* Run the ramp, reporting per stage. *)
  pf "%8s | %9s | %10s | %14s\n" "load" "mean-lat" "%time-on" "dominant mode";
  pf "%s\n" (String.make 52 '-');
  List.iter
    (fun rate ->
      current_rate := rate;
      on_ticks := 0;
      total_ticks := 0;
      stage_summary := Sim.Stats.Summary.create ();
      let stop = Sim.Time.add (Sim.Engine.now engine) stage_len in
      Sim.Engine.run_until engine stop;
      let frac = float_of_int !on_ticks /. float_of_int (max 1 !total_ticks) in
      pf "%6.0fk | %7.1fus | %9.0f%% | %14s\n" (rate /. 1e3)
        (Sim.Stats.Summary.mean !stage_summary)
        (100.0 *. frac)
        (if frac > 0.5 then "batching ON" else "batching OFF"))
    stages;
  pf "\nNagle toggles over the whole ramp: %d\n"
    (Tcp.Socket.nagle_toggles sock_client)
