(* The run engine.  A fleet is N tenants, each with its own client host
   (app CPU + IRQ CPU, optionally VM-priced), arrival process or
   command schedule, workload, link and SLO, all driving one server
   tier ([cores] shards of one app core and one IRQ core each — Redis
   is single-threaded).  A single run is a one-tenant fleet: {!Runner}
   only translates its config and projects this module's result.
   Batching is controlled by {!Control} groups whose granularity is the
   [scope] knob: one group spanning the fleet, one per tenant, or one
   per connection with its own toggler/estimator/degrade state.

   Time-varying load: each tenant's arrival process can be wrapped in
   an {!Arrival.envelope}, and tenants may declare connection [churn] —
   Poisson connect/disconnect rates or scripted epochs.  Connections
   spawned mid-run enter TCP slow-start ([cc_enabled]) and the
   estimator cold-start path; departing connections drain outstanding
   requests and FIN cleanly.  Envelope-free, churn-free configs take
   none of these paths and split no extra rng streams, so their results
   stay bit-identical to the fixed-population implementation.

   Rng split order is fixed, so identical configs replay identical draw
   sequences regardless of host parallelism: two streams per tenant in
   declaration order (workload, arrival); one per control group in
   group order; one loss stream when [loss_prob > 0] or a fault plan is
   armed; one fault stream when a plan is armed (each link's injector
   stream is split from it, c2s then s2c, connection by connection);
   then one churn stream per churning tenant in declaration order.  For
   one churn-free tenant this is the historical single-run order:
   workload, arrival, toggler, loss, fault.  Sharding adds no streams:
   load-balancer policies and flow steering are deterministic hashes
   and counters.

   Ids: connection [i] of tenant [t] is labelled ["t/c<i>"] at the
   client and ["t/s<i>"] at the server, suffixed ["@s<k>"] on sharded
   runs, and the tenant's request and SLO id is ["t/client"].  A sole
   tenant with an empty name — how {!Runner} states a single run — gets
   the untagged ids ["c<i>"], ["s<i>"] and ["client"], which trace
   readers take as "no tenant". *)

type scope = Global | Per_tenant | Per_conn

let scope_label = function
  | Global -> "global"
  | Per_tenant -> "per_tenant"
  | Per_conn -> "per_conn"

type churn = {
  arrive_rps : float;  (* Poisson connection-arrival rate; 0 disables *)
  depart_rps : float;  (* Poisson departure rate; 0 disables *)
  min_conns : int;  (* departures below this floor are refused *)
  max_conns : int;  (* arrivals above this cap are dropped *)
  script : (Sim.Time.t * int) list;  (* scripted (at, ±n) epochs *)
}

let no_churn = { arrive_rps = 0.0; depart_rps = 0.0; min_conns = 1; max_conns = 64; script = [] }

type tenant = {
  name : string;
  n_conns : int;
  rate_rps : float;
  burst : int;
  workload : Workload.t;
  cpu_multiplier : float;
  link : Tcp.Conn.link_params;
  slo_us : float;
  batching : Control.batching;
  envelope : Arrival.envelope;
  replay_gaps : int array option;
  trace : Trace.entry list option;
  churn : churn option;
}

let default_tenant ~name ~rate_rps =
  {
    name;
    n_conns = 1;
    rate_rps;
    burst = 1;
    workload = Workload.paper_set_only;
    cpu_multiplier = 1.0;
    link = Tcp.Conn.default_link;
    slo_us = E2e.Policy.default_slo_ns /. 1e3;
    batching = Control.Static_off;
    envelope = Arrival.Flat;
    replay_gaps = None;
    trace = None;
    churn = None;
  }

type config = {
  seed : int;
  warmup : Sim.Time.span;
  duration : Sim.Time.span;
  scope : scope;
  batching : Control.batching;
  server : Kv.Server.config;
  client : Kv.Client.config;
  host : Tcp.Conn.host_params;
  loss_prob : float;
  fault : Fault.Plan.t option;
  observe : Observe.config option;
  cold_start_inherit : bool;
  cores : int;  (* server shards; 1 = the unsharded tier *)
  lb : Shard.Lb.policy;  (* connection -> shard assignment policy *)
  tenants : tenant list;
}

let default_config ~tenants =
  let h = Tcp.Conn.default_host in
  {
    seed = 42;
    warmup = Sim.Time.ms 100;
    duration = Sim.Time.ms 400;
    scope = Global;
    batching = Control.Static_off;
    server = Kv.Server.default_config;
    client = Kv.Client.default_config;
    host = { h with socket = { h.socket with rcv_buf = 1024 * 1024 } };
    loss_prob = 0.0;
    fault = None;
    observe = None;
    cold_start_inherit = true;
    cores = 1;
    lb = Shard.Lb.Consistent_hash;
    tenants;
  }

type tenant_result = {
  t_name : string;
  t_offered_rps : float;
  t_achieved_rps : float;
  t_completed : int;
  t_issued : int;
  t_completed_total : int;
  t_outstanding_end : int;
  t_mean_us : float;
  t_p50_us : float;
  t_p99_us : float;
  t_under_slo : float;
  t_estimated_us : float option;
  t_estimated_local_us : float option;
  t_estimated_remote_us : float option;
  t_client_app_util : float;
  t_client_irq_util : float;
  t_nagle_toggles : int;
  t_conns_opened : int;
  t_conns_closed : int;
}

type run_detail = {
  d_hint_estimated_us : float option;
  d_hint_server_estimated_us : float option;
  d_packets : int;
  d_link_dropped : int;
  d_shares_corrupted : int;
  d_shares_rejected : int;
  d_server_batch_mean : float;
  d_server_wakeups : int;
  d_server_gro_merge : float;
  d_srtt_us : float option;
  d_p99_est_us : float option;
}

type shard_result = {
  sh_index : int;
  sh_conns : int;
  sh_issued : int;
  sh_completed_total : int;
  sh_outstanding_end : int;
  sh_completed : int;
  sh_achieved_rps : float;
  sh_mean_us : float;
  sh_p99_us : float;
  sh_app_util : float;
  sh_irq_util : float;
}

type group_result = {
  g_id : string;
  g_final_mode : E2e.Toggler.mode option;
  g_final_batch_limit : int option;
  g_degrade_freezes : int option;
  g_degrade_thaws : int option;
  g_degrade_frozen_end : bool option;
  g_samples : Control.estimate_sample list;
}

type result = {
  tenants : tenant_result list;
  shards : shard_result list;
  groups : group_result list;
  fleet_achieved_rps : float;
  fleet_mean_us : float;
  fleet_p99_us : float;
  goodput_max_min_ratio : float option;
  goodput_jain : float option;
  server_app_util : float;
  server_irq_util : float;
  detail : run_detail option;
  observability : Observe.output option;
}

let final_modes r =
  List.filter_map (fun g -> Option.map (fun m -> (g.g_id, m)) g.g_final_mode) r.groups

let validate_churn name c =
  let bad msg =
    invalid_arg (Printf.sprintf "Fleet.run: tenant %s: %s" name msg)
  in
  if (not (Float.is_finite c.arrive_rps)) || c.arrive_rps < 0.0 then
    bad "churn arrive_rps must be finite and non-negative";
  if (not (Float.is_finite c.depart_rps)) || c.depart_rps < 0.0 then
    bad "churn depart_rps must be finite and non-negative";
  if c.min_conns < 1 then bad "churn min_conns must be at least 1";
  if c.max_conns < c.min_conns then bad "churn max_conns must be >= min_conns";
  List.iter
    (fun (at, delta) ->
      if at < 0 then bad "churn script times must be non-negative";
      if delta = 0 then bad "churn script deltas must be non-zero")
    c.script

let validate_tenant ~sole t =
  let bad msg = invalid_arg (Printf.sprintf "Fleet.run: tenant %s: %s" t.name msg) in
  let positive x = Float.is_finite x && x > 0.0 in
  if t.name = "" && not sole then
    invalid_arg "Fleet.run: only a sole tenant may have an empty name";
  if String.exists (fun c -> c = '/' || c = ' ' || c = '\t') t.name then
    invalid_arg
      (Printf.sprintf "Fleet.run: tenant name %S may not contain '/' or whitespace" t.name);
  if t.n_conns < 1 then bad "n_conns must be at least 1";
  if not (positive t.rate_rps) then bad "rate_rps must be positive and finite";
  if t.burst < 1 then bad "burst must be at least 1";
  if not (positive t.cpu_multiplier) then bad "cpu_multiplier must be positive";
  if not (positive t.slo_us) then bad "slo_us must be positive";
  match t.churn with
  | None -> ()
  | Some c ->
    validate_churn t.name c;
    if t.n_conns < c.min_conns || t.n_conns > c.max_conns then
      bad "n_conns must lie within churn [min_conns, max_conns]"

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

(* [n] in decimal into [b], its last digit at [last]. *)
let rec put_digits b ~last n =
  Bytes.set b last (Char.chr (Char.code '0' + (n mod 10)));
  if n >= 10 then put_digits b ~last:(last - 1) (n / 10)

(* The id scheme (see the header): [side] is 'c' or 's', [i] the
   connection index and [shard] its shard, or -1 for no ["@s<k>"]
   suffix.  Written into one string: a fleet builds two per
   connection. *)
let conn_label t side i ~shard =
  let name = String.length t.name in
  let start = if name = 0 then 0 else name + 1 in
  let suffix = start + 1 + digits i in
  let len = if shard < 0 then suffix else suffix + 2 + digits shard in
  let b = Bytes.create len in
  Bytes.blit_string t.name 0 b 0 name;
  if name > 0 then Bytes.set b name '/';
  Bytes.set b start side;
  put_digits b ~last:(suffix - 1) i;
  if shard >= 0 then begin
    Bytes.blit_string "@s" 0 b suffix 2;
    put_digits b ~last:(len - 1) shard
  end;
  Bytes.unsafe_to_string b

let client_id t = if t.name = "" then "client" else t.name ^ "/client"

(* One connection's lifetime state.  [gen] is 0 for run-start
   connections and the per-tenant spawn ordinal for churn arrivals;
   [accepting] keeps the entry in the issue rotation, [retired] marks a
   fully drained-and-closed departure (kept for lifetime accounting).
   [csock]/[ssock] are [conn]'s ends, kept here so a pass over 10^4
   connections skips a cold [conn] record.  [on_complete] is shared by
   every connection of one tenant, shard and control group. *)
type conn_entry = {
  gen : int;
  shard : int;  (* backend shard this connection is steered to *)
  conn : Tcp.Conn.t;
  csock : Tcp.Socket.t;  (* client end *)
  ssock : Tcp.Socket.t;  (* server end *)
  client : Kv.Client.t;
  server : Kv.Server.t;
  mutable accepting : bool;
  mutable retired : bool;
  mutable egroup : Control.t option;
  mutable on_complete : latency:Sim.Time.span -> Kv.Resp.value -> unit;
}

(* Everything one tenant owns at runtime.  [entries] holds every
   connection the tenant ever had in a flat slot pool (handles are
   ascending spawn order, never freed, so lifetime accounting
   (issued = completed + outstanding) covers departed connections and
   10^5+-connection tenants cost one flat array instead of a list
   spine the GC must walk). *)
type tenant_state = {
  spec : tenant;
  mode : Control.batching;  (* after applying the scope *)
  client_cpu : Sim.Cpu.t;
  client_irq : Sim.Cpu.t;
  store : Kv.Store.t;
  recorder : Recorder.t;
  workload_rng : Sim.Rng.t;
  arrival : Arrival.t;
  entries : conn_entry Shard.Flat.t;
  mutable next_gen : int;
  mutable opened_mid : int;
  mutable closed_mid : int;
  mutable rotation : conn_entry array;
  next_client : int ref;
  (* warmup-end baselines for the measured-window utilizations/packets *)
  mutable base_app : int;
  mutable base_irq : int;
  mutable base_packets : int;
  (* a sole tenant's hint baselines at warmup end, by handle: the
     client's and the server's view of the client hint queue *)
  mutable hint_base : (E2e.Queue_state.share * E2e.Queue_state.share option) option array;
}

let ns_opt_to_us = Option.map (fun ns -> ns /. 1e3)

let iter_entries s ~f = Shard.Flat.iter s.entries ~f:(fun _ e -> f e)

let fold_entries s ~init ~f =
  Shard.Flat.fold s.entries ~init ~f:(fun acc _ e -> f acc e)

(* The issue rotation: accepting connections in ascending handle order. *)
let rebuild_rotation s =
  s.rotation <-
    Array.of_list
      (List.rev (fold_entries s ~init:[] ~f:(fun acc e -> if e.accepting then e :: acc else acc)))

let accepting_count s = Array.length s.rotation

let packets s = fold_entries s ~init:0 ~f:(fun acc e -> acc + Tcp.Conn.total_packets e.conn)

(* Queue-depth gauges of one socket's estimator. *)
let queue_gauges m sock =
  let e = Tcp.Socket.estimator sock in
  let prefix = Tcp.Socket.label sock in
  Sim.Metrics.gauge m (prefix ^ ".unacked") (fun () ->
      float_of_int (E2e.Estimator.unacked_size e));
  Sim.Metrics.gauge m (prefix ^ ".unread") (fun () ->
      float_of_int (E2e.Estimator.unread_size e));
  Sim.Metrics.gauge m (prefix ^ ".ackdelay") (fun () ->
      float_of_int (E2e.Estimator.ackdelay_size e))

(* Attach the trace and the Little's-law audit to a socket. *)
let observe_sock o sock =
  Tcp.Socket.set_trace sock (Observe.trace o);
  E2e.Estimator.set_audit (Tcp.Socket.estimator sock) (Observe.audit o)
    ~prefix:(Tcp.Socket.label sock)

(* Fault visibility: each direction's drops, reorders and duplicates
   are labelled with the sending side's id. *)
let observe_links o e =
  let tr = Observe.trace o in
  Tcp.Link.set_trace (Tcp.Conn.link_ab e.conn) tr ~id:(Tcp.Socket.label e.csock);
  Tcp.Link.set_trace (Tcp.Conn.link_ba e.conn) tr ~id:(Tcp.Socket.label e.ssock)

(* §3.3 hint input of one connection: the hint-queue averages between
   its warmup baseline and [cur]. *)
let no_hint = { E2e.Aggregate.latency_ns = None; throughput = 0.0 }

let hint_input base cur =
  match (base, cur) with
  | Some prev, Some cur -> (
    match E2e.Hints.avgs ~prev ~cur with
    | Some avgs -> { E2e.Aggregate.latency_ns = avgs.latency_ns; throughput = avgs.throughput }
    | None -> no_hint)
  | _ -> no_hint

(* The aggregate over hint inputs gathered newest first. *)
let hint_estimate_us inputs = ns_opt_to_us (E2e.Aggregate.combine (List.rev inputs)).latency_ns

let rejected_shares sock = E2e.Estimator.rejected_shares (Tcp.Socket.estimator sock)

let run (cfg : config) =
  if cfg.tenants = [] then invalid_arg "Fleet.run: at least one tenant required";
  if cfg.cores < 1 then invalid_arg "Fleet.run: cores must be at least 1";
  let sole = match cfg.tenants with [ _ ] -> true | _ -> false in
  List.iter (validate_tenant ~sole) cfg.tenants;
  let names = List.map (fun t -> t.name) cfg.tenants in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Fleet.run: tenant names must be unique";
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:cfg.seed in
  let warmup_until = cfg.warmup in
  let total = cfg.warmup + cfg.duration in
  (* The split order documented in the header. *)
  let tenant_rngs =
    List.map
      (fun _ ->
        let workload_rng = Sim.Rng.split rng in
        let arrival_rng = Sim.Rng.split rng in
        (workload_rng, arrival_rng))
      cfg.tenants
  in
  let n_groups =
    match cfg.scope with
    | Global -> 1
    | Per_tenant -> List.length cfg.tenants
    | Per_conn -> List.fold_left (fun acc t -> acc + t.n_conns) 0 cfg.tenants
  in
  let group_rngs = Array.init n_groups (fun _ -> Sim.Rng.split rng) in
  let loss_rng =
    if cfg.loss_prob > 0.0 || cfg.fault <> None then Some (Sim.Rng.split rng) else None
  in
  let fault_rng = Option.map (fun _ -> Sim.Rng.split rng) cfg.fault in
  let churn_rngs =
    List.map (fun t -> Option.map (fun _ -> Sim.Rng.split rng) t.churn) cfg.tenants
  in
  (* Sharded server tier: [cores] simulated cores, each with a private
     app CPU (its run queue) and IRQ CPU.  With [cores = 1] this is the
     classic shared single-core server (contention for which is the
     coupling that makes global batching decisions unfair).  The front
     load balancer assigns each connection a shard. *)
  let cores = cfg.cores in
  let pool = Shard.Pool.create engine ~cores in
  let lb = if cores = 1 then None else Some (Shard.Lb.create ~policy:cfg.lb ~shards:cores) in
  (* Per-shard dispatch depth (issued - completed), for the
     [Shard_enqueued] stream and end-of-run accounting closure. *)
  let sh_issued = Array.make cores 0 in
  let sh_done = Array.make cores 0 in
  let lb_policy_name = Shard.Lb.policy_to_string cfg.lb in
  (* Assign connection [idx] of tenant [t] to a shard.  Only
     [Consistent_hash] reads the key, the shard-free client label. *)
  let assign_shard t idx =
    match lb with
    | None -> 0
    | Some lb ->
      let key =
        match Shard.Lb.policy lb with
        | Shard.Lb.Consistent_hash -> conn_label t 'c' idx ~shard:(-1)
        | Round_robin | Least_loaded -> ""
      in
      Shard.Lb.assign lb ~key
  in
  let obs = Option.map Observe.create cfg.observe in
  let lb_breadcrumb ~at ~shard id =
    match obs with
    | Some o when cores > 1 ->
      let tr = Observe.trace o in
      if Sim.Trace.enabled tr then
        Sim.Trace.event tr ~at ~id (Sim.Trace.Lb_assigned { shard; policy = lb_policy_name })
    | Some _ | None -> ()
  in
  (* A tenant's host parameters and client costs; churn arrivals
     ([spawned]) enter TCP slow start. *)
  let host_for mode ~spawned =
    let socket =
      {
        cfg.host.socket with
        Tcp.Socket.nagle = Control.initial_nagle mode;
        cc_enabled = cfg.host.socket.cc_enabled || spawned;
      }
    in
    { cfg.host with socket }
  in
  let client_cfg_for (t : tenant) =
    { cfg.client with
      Kv.Client.cpu_multiplier = cfg.client.Kv.Client.cpu_multiplier *. t.cpu_multiplier
    }
  in
  (* The one connection constructor, for run-start connections and
     churn arrivals alike: shard assignment, the socket pair and its
     links (loss and fault injection armed), the KV server and client. *)
  let connect (t : tenant) ~h ~client_cfg ~client_cpu ~client_irq ~store ~idx ~gen =
    let shard = assign_shard t idx in
    let suffix = if cores = 1 then -1 else shard in
    let conn =
      Tcp.Conn.create engine ~a:h ~b:h ~link_ab:t.link ~link_ba:t.link ~cpu_a:client_irq
        ~cpu_b:(Shard.Pool.irq pool shard) ~label_a:(conn_label t 'c' idx ~shard:suffix)
        ~label_b:(conn_label t 's' idx ~shard:suffix) ()
    in
    (match loss_rng with
    | Some rng when cfg.loss_prob > 0.0 ->
      Tcp.Link.set_loss (Tcp.Conn.link_ab conn) ~rng ~prob:cfg.loss_prob;
      Tcp.Link.set_loss (Tcp.Conn.link_ba conn) ~rng ~prob:cfg.loss_prob
    | Some _ | None -> ());
    (match (cfg.fault, fault_rng) with
    | Some plan, Some frng ->
      let inj side = Fault.Injector.create ~side ~rng:(Sim.Rng.split frng) in
      Tcp.Link.set_fault (Tcp.Conn.link_ab conn) (inj plan.Fault.Plan.c2s);
      Tcp.Link.set_fault (Tcp.Conn.link_ba conn) (inj plan.Fault.Plan.s2c)
    | _ -> ());
    let server =
      Kv.Server.create engine ~cpu:(Shard.Pool.cpu pool shard) ~socket:(Tcp.Conn.sock_b conn)
        ~store cfg.server
    in
    let client =
      Kv.Client.create engine ~cpu:client_cpu ~socket:(Tcp.Conn.sock_a conn) client_cfg
    in
    lb_breadcrumb ~at:(Sim.Engine.now engine) ~shard (Tcp.Socket.label (Tcp.Conn.sock_a conn));
    {
      gen;
      shard;
      conn;
      csock = Tcp.Conn.sock_a conn;
      ssock = Tcp.Conn.sock_b conn;
      client;
      server;
      accepting = true;
      retired = false;
      egroup = None;
      on_complete = (fun ~latency:_ _ -> ());
    }
  in
  let states =
    List.map2
      (fun (t : tenant) (workload_rng, arrival_rng) ->
        let mode = match cfg.scope with Global -> cfg.batching | _ -> t.batching in
        let client_irq = Sim.Cpu.create engine in
        let client_cpu = Sim.Cpu.create engine in
        (* One store per tenant: workloads may disagree on value sizes
           and the key space is shared ("k:<n>"), so a shared store
           would let one tenant resize another's GET responses. *)
        let store = Kv.Store.create () in
        Workload.prepopulate t.workload store ~now:(Sim.Engine.now engine);
        let h = host_for mode ~spawned:false in
        let client_cfg = client_cfg_for t in
        let connect = connect t ~h ~client_cfg ~client_cpu ~client_irq ~store ~gen:0 in
        let first = connect ~idx:0 in
        let entries =
          Shard.Flat.create ~capacity:(max 16 t.n_conns)
            ~dummy:{ first with gen = -1; accepting = false; retired = true }
            ()
        in
        ignore (Shard.Flat.alloc entries first);
        for idx = 1 to t.n_conns - 1 do
          ignore (Shard.Flat.alloc entries (connect ~idx))
        done;
        let base =
          match t.replay_gaps with
          | Some gaps -> Arrival.replay ~gaps_ns:gaps
          | None ->
            if t.burst > 1 then
              Arrival.bursty ~rng:arrival_rng ~rate_rps:t.rate_rps ~burst:t.burst
            else Arrival.poisson ~rng:arrival_rng ~rate_rps:t.rate_rps
        in
        let s =
          {
            spec = t;
            mode;
            client_cpu;
            client_irq;
            store;
            recorder = Recorder.create ~warmup_until ();
            workload_rng;
            arrival = Arrival.modulate base t.envelope;
            entries;
            next_gen = 1;
            opened_mid = 0;
            closed_mid = 0;
            rotation = [||];
            next_client = ref 0;
            base_app = 0;
            base_irq = 0;
            base_packets = 0;
            hint_base = [||];
          }
        in
        rebuild_rotation s;
        s)
      cfg.tenants tenant_rngs
  in
  (* Each completion is recorded once per distinct population: a sole
     tenant's recorder is the fleet's, and one shard's is the fleet's. *)
  let fleet_recorder =
    match states with [ s ] -> s.recorder | _ -> Recorder.create ~warmup_until ()
  in
  let sh_recorders =
    if cores = 1 then [| fleet_recorder |]
    else Array.init cores (fun _ -> Recorder.create ~warmup_until ())
  in
  (* Mid-run bandwidth/propagation-delay steps apply to every link of
     the run at the planned instant. *)
  Option.iter
    (fun plan ->
      List.iter
        (fun (st : Fault.Plan.step) ->
          Sim.Engine.post_at engine
            ~at:(Sim.Time.ns (int_of_float (st.at_us *. 1e3)))
            (fun () ->
              List.iter
                (fun s ->
                  iter_entries s ~f:(fun e ->
                      List.iter
                        (fun link ->
                          Option.iter (Tcp.Link.set_gbit_per_s link) st.gbit_per_s;
                          Option.iter
                            (fun us ->
                              Tcp.Link.set_prop_delay link
                                (Sim.Time.ns (int_of_float (us *. 1e3))))
                            st.delay_us)
                        [ Tcp.Conn.link_ab e.conn; Tcp.Conn.link_ba e.conn ]))
                states))
        plan.Fault.Plan.steps)
    cfg.fault;
  (* Every run-start socket, the client ends first, each side in
     tenant and handle order. *)
  let iter_socks f =
    List.iter (fun s -> iter_entries s ~f:(fun e -> f e.csock)) states;
    List.iter (fun s -> iter_entries s ~f:(fun e -> f e.ssock)) states
  in
  (match obs with
  | Some o ->
    iter_socks (observe_sock o);
    List.iter (fun s -> iter_entries s ~f:(observe_links o)) states
  | None -> ());
  (* The control group (and decision ledger) a connection belongs to. *)
  let group_id s e =
    match cfg.scope with
    | Global -> "run"
    | Per_tenant -> s.spec.name
    | Per_conn -> Tcp.Socket.label e.csock
  in
  (* Decision ledgers (one per control group) and SLO declarations (one
     per tenant), made before the drivers so completions are attributed
     from the first request on. *)
  let ledger_tbl : (string, E2e.Ledger.t) Hashtbl.t = Hashtbl.create 16 in
  let add_ledger group =
    match obs with
    | Some o when not (Hashtbl.mem ledger_tbl group) ->
      Hashtbl.replace ledger_tbl group (E2e.Ledger.create ~trace:(Observe.trace o) ~group)
    | Some _ | None -> ()
  in
  (match obs with
  | None -> ()
  | Some o ->
    let at = Sim.Engine.now engine in
    List.iter
      (fun s -> Observe.declare_slo o ~at ~id:(client_id s.spec) ~slo_us:s.spec.slo_us)
      states;
    (* Sharded runs also declare tenant-per-shard ids
       ("<tenant>/client@s<k>"), so [slo] rolls attainment up per shard. *)
    if cores > 1 then
      List.iter
        (fun s ->
          for k = 0 to cores - 1 do
            Observe.declare_slo o ~at
              ~id:(Printf.sprintf "%s@s%d" (client_id s.spec) k)
              ~slo_us:s.spec.slo_us
          done)
        states;
    List.iter (fun s -> iter_entries s ~f:(fun e -> add_ledger (group_id s e))) states);
  let ledger_for gid = Hashtbl.find_opt ledger_tbl gid in
  (* Completion callback of a tenant's connections on [shard] in group
     [gid]: records latency in every distinct recorder, feeds the
     group's ledger and traces the completion under the tenant's SLO
     ids.  Built before the
     first request so the hot path allocates no closures. *)
  let completion s ~shard ~gid =
    let lg = ledger_for gid in
    let req_id = client_id s.spec in
    let shard_req_id =
      if cores = 1 then None else Some (Printf.sprintf "%s@s%d" req_id shard)
    in
    let fleet_rec = if fleet_recorder == s.recorder then None else Some fleet_recorder in
    let shard_rec =
      if sh_recorders.(shard) == fleet_recorder then None else Some sh_recorders.(shard)
    in
    fun ~latency reply ->
      (match reply with
      | Kv.Resp.Error err -> failwith ("fleet: server replied with error: " ^ err)
      | Kv.Resp.Simple _ | Kv.Resp.Integer _ | Kv.Resp.Bulk _ | Kv.Resp.Array _ -> ());
      let at = Sim.Engine.now engine in
      Recorder.record s.recorder ~at ~latency;
      (match fleet_rec with Some r -> Recorder.record r ~at ~latency | None -> ());
      sh_done.(shard) <- sh_done.(shard) + 1;
      (match shard_rec with Some r -> Recorder.record r ~at ~latency | None -> ());
      (match lg with
      | Some lg -> E2e.Ledger.completion lg ~latency
      | None -> ());
      match obs with
      | Some o -> (
        Observe.note_request o ~id:req_id ~at ~latency;
        match shard_req_id with
        | Some sid ->
          let tr = Observe.trace o in
          if Sim.Trace.enabled tr then
            Sim.Trace.event tr ~at ~id:sid
              (Sim.Trace.Request_done { latency_us = Sim.Time.to_us latency })
        | None -> ())
      | None -> ()
  in
  (* One callback per tenant, shard and group: a per-connection group
     gets its own, the other scopes share one per tenant and shard. *)
  let completions = Hashtbl.create 16 in
  let wire_entry s e =
    let gid = group_id s e in
    e.on_complete <-
      (match cfg.scope with
      | Per_conn -> completion s ~shard:e.shard ~gid
      | Global | Per_tenant -> (
        let key = (s.spec.name, e.shard) in
        match Hashtbl.find_opt completions key with
        | Some f -> f
        | None ->
          let f = completion s ~shard:e.shard ~gid in
          Hashtbl.add completions key f;
          f))
  in
  (* Open-loop drivers: one independent arrival process (or replayed
     command schedule) per tenant, round-robin over the tenant's
     currently accepting connections.  The rotation is rebuilt on
     churn; with a fixed population it is a fixed array. *)
  List.iter
    (fun s ->
      iter_entries s ~f:(wire_entry s);
      let issue cmd =
        let n = Array.length s.rotation in
        if n > 0 then begin
          let k = !(s.next_client) mod n in
          s.next_client := (k + 1) mod n;
          let e = s.rotation.(k) in
          let shard = e.shard in
          sh_issued.(shard) <- sh_issued.(shard) + 1;
          (* Dispatch breadcrumb (sharded runs only); the enabled check
             precedes event construction so untraced issues allocate
             nothing extra. *)
          (if cores > 1 then
             match obs with
             | Some o ->
               let tr = Observe.trace o in
               if Sim.Trace.enabled tr then
                 Sim.Trace.event tr ~at:(Sim.Engine.now engine)
                   ~id:(Tcp.Socket.label e.csock)
                   (Sim.Trace.Shard_enqueued
                      { shard; depth = sh_issued.(shard) - sh_done.(shard) })
             | None -> ());
          Kv.Client.request e.client cmd ~on_complete:e.on_complete
        end
      in
      match s.spec.trace with
      | Some entries ->
        (* command replay: the schedule is the trace, clipped to the run *)
        List.iter
          (fun (en : Trace.entry) ->
            if Sim.Time.compare en.at total <= 0 then
              Sim.Engine.post_at engine ~at:en.at (fun () -> issue en.cmd))
          entries
      | None ->
        let rec schedule_request () =
          let gap = Arrival.next_gap s.arrival ~now:(Sim.Engine.now engine) in
          let at = Sim.Time.add (Sim.Engine.now engine) gap in
          if Sim.Time.compare at total <= 0 then
            Sim.Engine.post engine ~after:gap (fun () ->
                issue (Workload.next_command s.spec.workload ~rng:s.workload_rng);
                schedule_request ())
        in
        schedule_request ())
    states;
  (* Observability sampling.  Everything read here is non-destructive
     ([peek_estimate], queue sizes, counters), and the tick chain is
     scheduled before the control groups so that at coincident instants
     the sample sees the window the controller is about to advance —
     enabling observability cannot change the simulation.  The tick
     iterates the live population, so churn arrivals join the sample
     and the per-tenant settling series the moment they exist. *)
  (match obs with
  | None -> ()
  | Some o ->
    let m = Observe.metrics o in
    iter_socks (queue_gauges m);
    let first_client = (Shard.Flat.get (List.hd states).entries 0).csock in
    Sim.Metrics.gauge m "client.nagle_toggles" (fun () ->
        float_of_int (Tcp.Socket.nagle_toggles first_client));
    Sim.Metrics.gauge m "packets" (fun () ->
        float_of_int (List.fold_left (fun acc s -> acc + packets s) 0 states));
    Sim.Metrics.gauge m "completed" (fun () ->
        float_of_int (Recorder.count fleet_recorder));
    let interval = Observe.interval o in
    (* The fleet-wide aggregate and one per tenant, refilled on every
       tick. *)
    let fleet_acc = E2e.Aggregate.acc () in
    let tenant_accs = List.map (fun _ -> E2e.Aggregate.acc ()) states in
    let rec tick () =
      let at = Sim.Engine.now engine in
      E2e.Aggregate.reset fleet_acc;
      let window_us = ref 0.0 in
      List.iter2
        (fun s tacc ->
          E2e.Aggregate.reset tacc;
          iter_entries s ~f:(fun e ->
              if
                (not e.retired)
                && E2e.Estimator.fold (Tcp.Socket.estimator e.csock) ~at ~advance:false fleet_acc
              then begin
                E2e.Aggregate.copy_last ~src:fleet_acc tacc;
                E2e.Aggregate.add_last tacc;
                window_us := Float.max !window_us (fleet_acc.last_window_ns /. 1e3);
                (* Static runs never call [estimate] mid-run, so the
                   trace would carry no estimate events without these
                   peeked ones. *)
                Sim.Trace.event (Observe.trace o) ~at ~id:(Tcp.Socket.label e.csock)
                  (Sim.Trace.Estimate_computed
                     {
                       latency_us = ns_opt_to_us (E2e.Aggregate.known fleet_acc.last_latency_ns);
                       throughput = fleet_acc.last_throughput;
                       window_us = fleet_acc.last_window_ns /. 1e3;
                     })
              end))
        states tenant_accs;
      let agg = E2e.Aggregate.result fleet_acc in
      let est_truth =
        match agg.latency_ns with
        | Some lat_ns when Sim.Time.compare at warmup_until > 0 ->
          let est_us = lat_ns /. 1e3 in
          Option.map
            (fun truth_us -> (est_us, truth_us))
            (Observe.note_residual o ~at ~window_us:!window_us ~est_us)
        | Some _ | None -> None
      in
      let sample = Sim.Metrics.sample m ~at in
      let sample =
        match est_truth with
        | Some (est_us, truth_us) ->
          { sample with
            Sim.Metrics.values =
              sample.Sim.Metrics.values @ [ ("estimate_us", est_us); ("truth_us", truth_us) ]
          }
        | None -> sample
      in
      Observe.note_sample o sample;
      List.iter2
        (fun s tacc ->
          let accepting = ref 0 and on = ref 0 in
          iter_entries s ~f:(fun e ->
              if (not e.retired) && e.accepting then begin
                incr accepting;
                if Tcp.Socket.nagle_enabled e.csock then incr on
              end);
          let nagle_frac =
            if !accepting = 0 then Float.nan else float_of_int !on /. float_of_int !accepting
          in
          Observe.note_settle o ~id:(client_id s.spec) ~at
            ~est_us:(ns_opt_to_us (E2e.Aggregate.result tacc).latency_ns)
            ~nagle_frac)
        states tenant_accs;
      if Sim.Time.compare (Sim.Time.add at interval) total <= 0 then
        Sim.Engine.post engine ~after:interval tick
    in
    Sim.Engine.post engine ~after:interval tick);
  (* Envelope edges: register every modulation discontinuity up front,
     as the churn script's epochs are, so the settling tracker can
     segment the run. *)
  (match obs with
  | None -> ()
  | Some o ->
    List.iter
      (fun s ->
        match Arrival.envelope s.arrival with
        | Arrival.Flat -> ()
        | env ->
          List.iter
            (fun at_us ->
              Observe.note_edge o ~id:(client_id s.spec) ~at:(int_of_float (at_us *. 1e3)))
            (Arrival.edges env ~until_us:(float_of_int total /. 1e3)))
      states);
  (* Control groups, one per scope unit, in group order.  Each entry is
     (id, the one tenant the group covers if any, group). *)
  let fault_armed = cfg.fault <> None in
  (* [iter f] calls [f] on each of the group's connections, in order. *)
  let attach ~rng ~gid ~batching iter =
    let g =
      Control.attach ?ledger:(ledger_for gid) ~engine ~until:total ~rng ~fault_armed ~batching
        ~members:(fun f -> iter (fun e -> f e.csock e.ssock))
        ()
    in
    let some_g = Some g in
    iter (fun e -> e.egroup <- some_g);
    g
  in
  let groups =
    match cfg.scope with
    | Global ->
      let iter f = List.iter (fun s -> iter_entries s ~f) states in
      [ ("run", (if sole then Some 0 else None),
         attach ~rng:group_rngs.(0) ~gid:"run" ~batching:cfg.batching iter) ]
    | Per_tenant ->
      List.mapi
        (fun i s ->
          ( s.spec.name, Some i,
            attach ~rng:group_rngs.(i) ~gid:s.spec.name ~batching:s.mode (fun f ->
                iter_entries s ~f) ))
        states
    | Per_conn ->
      let k = ref 0 in
      List.concat
        (List.mapi
           (fun i s ->
             List.rev
               (fold_entries s ~init:[] ~f:(fun acc e ->
                    let gid = group_id s e in
                    let rng = group_rngs.(!k) in
                    incr k;
                    (gid, Some i, attach ~rng ~gid ~batching:s.mode (fun f -> f e)) :: acc)))
           states)
  in
  (* Connection churn: spawn and retire connections while the run is
     live.  Spawned connections enter TCP slow-start and — when
     [cold_start_inherit] — the estimator cold-start path plus
     group-prior inheritance (adopting the live mode under
     Global/Per_tenant, seeding the fresh toggler's arms from a sibling
     under Per_conn).  Departing connections leave the rotation, drain
     outstanding requests, FIN, and close the server side once its
     half-close is seen. *)
  let spawned_groups = ref [] in
  let sibling_group s =
    fold_entries s ~init:None ~f:(fun acc e ->
        match acc with
        | Some _ -> acc
        | None -> if e.retired then None else e.egroup)
  in
  let spawn_one i s crng =
    let gen = s.next_gen in
    s.next_gen <- gen + 1;
    let entry =
      connect s.spec ~h:(host_for s.mode ~spawned:true) ~client_cfg:(client_cfg_for s.spec)
        ~client_cpu:s.client_cpu ~client_irq:s.client_irq ~store:s.store
        ~idx:(Shard.Flat.live s.entries) ~gen
    in
    let csock = entry.csock and ssock = entry.ssock in
    let label = Tcp.Socket.label csock in
    let at = Sim.Engine.now engine in
    (match obs with
    | Some o ->
      observe_sock o csock;
      observe_sock o ssock;
      observe_links o entry;
      List.iter (queue_gauges (Observe.metrics o)) [ csock; ssock ]
    | None -> ());
    let inherited = cfg.cold_start_inherit in
    if inherited then E2e.Estimator.set_cold_start (Tcp.Socket.estimator csock);
    (match cfg.scope with
    | Global | Per_tenant -> (
      (* every connection of the tenant shares its group *)
      match sibling_group s with
      | Some g ->
        Control.adopt ~inherit_mode:inherited g ~client_sock:csock ~server_sock:ssock;
        entry.egroup <- Some g
      | None -> ())
    | Per_conn ->
      add_ledger label;
      let g = attach ~rng:(Sim.Rng.split crng) ~gid:label ~batching:s.mode (fun f -> f entry) in
      spawned_groups := !spawned_groups @ [ (label, Some i, g) ];
      if inherited then (
        match sibling_group s with
        | Some sib ->
          (match (Control.toggler sib, Control.toggler g) with
          | Some from_t, Some to_t ->
            List.iter
              (fun m ->
                match E2e.Toggler.smoothed from_t m with
                | Some outcome -> E2e.Toggler.seed_arm to_t ~mode:m outcome
                | None -> ())
              [ E2e.Toggler.Batch_on; E2e.Toggler.Batch_off ]
          | _ -> ());
          let en = Control.current_nagle sib in
          Tcp.Socket.set_nagle_enabled csock en;
          Tcp.Socket.set_nagle_enabled ssock en
        | None -> ()));
    ignore (Shard.Flat.alloc s.entries entry);
    s.opened_mid <- s.opened_mid + 1;
    wire_entry s entry;
    rebuild_rotation s;
    match obs with
    | Some o ->
      Sim.Trace.event (Observe.trace o) ~at ~id:label
        (Sim.Trace.Conn_opened { gen; inherited })
    | None -> ()
  in
  let retire_entry s e =
    e.accepting <- false;
    rebuild_rotation s;
    let label = Tcp.Socket.label e.csock in
    let rec drain () =
      if Kv.Client.outstanding e.client = 0 then begin
        Tcp.Socket.close e.csock;
        (match e.egroup with
        | Some g -> Control.abandon g ~client_sock:e.csock ~server_sock:e.ssock
        | None -> ());
        e.retired <- true;
        s.closed_mid <- s.closed_mid + 1;
        Option.iter (fun lb -> Shard.Lb.release lb ~shard:e.shard) lb;
        (match obs with
        | Some o ->
          Sim.Trace.event (Observe.trace o) ~at:(Sim.Engine.now engine) ~id:label
            (Sim.Trace.Conn_closed
               { gen = e.gen; completed = Kv.Client.completed e.client })
        | None -> ());
        let rec server_close () =
          match Tcp.Socket.state e.ssock with
          | Tcp.Socket.Close_wait -> Tcp.Socket.close e.ssock
          | Tcp.Socket.Closed | Tcp.Socket.Time_wait -> ()
          | _ -> Sim.Engine.post engine ~after:(Sim.Time.us 100) server_close
        in
        server_close ()
      end
      else Sim.Engine.post engine ~after:(Sim.Time.us 50) drain
    in
    drain ()
  in
  List.iteri
    (fun i (s, crng) ->
      match (s.spec.churn, crng) with
      | Some ch, Some crng ->
        (if ch.arrive_rps > 0.0 then
           let rec arrivals () =
             let gap =
               int_of_float (Sim.Rng.exponential crng ~mean:(1e9 /. ch.arrive_rps))
             in
             let at = Sim.Time.add (Sim.Engine.now engine) gap in
             if Sim.Time.compare at total <= 0 then
               Sim.Engine.post engine ~after:gap (fun () ->
                   if accepting_count s < ch.max_conns then spawn_one i s crng;
                   arrivals ())
           in
           arrivals ());
        (if ch.depart_rps > 0.0 then
           let rec departures () =
             let gap =
               int_of_float (Sim.Rng.exponential crng ~mean:(1e9 /. ch.depart_rps))
             in
             let at = Sim.Time.add (Sim.Engine.now engine) gap in
             if Sim.Time.compare at total <= 0 then
               Sim.Engine.post engine ~after:gap (fun () ->
                   (if accepting_count s > ch.min_conns then
                      let k = Sim.Rng.int crng ~bound:(accepting_count s) in
                      retire_entry s s.rotation.(k));
                   departures ())
           in
           departures ());
        List.iter
          (fun (at, delta) ->
            if Sim.Time.compare at total <= 0 then begin
              (match obs with
              | Some o -> Observe.note_edge o ~id:(client_id s.spec) ~at
              | None -> ());
              Sim.Engine.post_at engine ~at (fun () ->
                  if delta > 0 then
                    for _ = 1 to delta do
                      if accepting_count s < ch.max_conns then spawn_one i s crng
                    done
                  else
                    for _ = 1 to -delta do
                      if accepting_count s > ch.min_conns then
                        retire_entry s s.rotation.(accepting_count s - 1)
                    done)
            end)
          ch.script
      | _ -> ())
    (List.combine states churn_rngs);
  (* Warmup boundary: close every estimation window, capture CPU
     baselines and a sole tenant's packet and hint baselines, reset the
     audit. *)
  let shard_baseline = ref None in
  Sim.Engine.post_at engine ~at:warmup_until (fun () ->
      let at = Sim.Engine.now engine in
      (* Closing the windows is the point: the sums go unread. *)
      let closed = E2e.Aggregate.acc () in
      List.iter
        (fun s ->
          s.base_app <- Sim.Cpu.busy_ns s.client_cpu;
          s.base_irq <- Sim.Cpu.busy_ns s.client_irq;
          iter_entries s ~f:(fun e ->
              if not e.retired then
                ignore (E2e.Estimator.fold (Tcp.Socket.estimator e.csock) ~at ~advance:true closed);
              if sole then
                s.base_packets <- s.base_packets + Tcp.Conn.total_packets e.conn);
          if sole then
            s.hint_base <-
              Array.init (Shard.Flat.capacity s.entries) (fun i ->
                  if Shard.Flat.in_use s.entries i then
                    let e = Shard.Flat.get s.entries i in
                    Some
                      ( E2e.Hints.share (Kv.Client.hint_tracker e.client) ~at,
                        Option.map snd (Tcp.Socket.remote_hint_window e.ssock) )
                  else None))
        states;
      (match obs with
      | Some o -> Sim.Audit.reset_window (Observe.audit o) ~at
      | None -> ());
      shard_baseline :=
        Some
          ( Array.init cores (fun k -> Sim.Cpu.busy_ns (Shard.Pool.cpu pool k)),
            Array.init cores (fun k -> Sim.Cpu.busy_ns (Shard.Pool.irq pool k)) ));
  Sim.Engine.run_until engine total;
  let at = Sim.Engine.now engine in
  (* Close the Little's-law audit window and put each queue's verdict
     on the trace before [Observe.output] snapshots the ring. *)
  (match obs with
  | None -> ()
  | Some o ->
    let reports = Observe.finalize_audit o ~at in
    List.iter
      (fun (r : Sim.Audit.report) ->
        Sim.Trace.event (Observe.trace o) ~at ~id:""
          (Sim.Trace.Audit_window
             {
               queue = r.queue;
               l_avg = r.l_avg;
               lambda_per_s = r.lambda_per_s;
               w_us = r.w_us;
               rel_err = r.rel_err;
             }))
      reports);
  let b_sh_app, b_sh_irq =
    match !shard_baseline with
    | Some b -> b
    | None -> failwith "fleet: warmup sample never fired"
  in
  let duration_s = Sim.Time.to_sec cfg.duration in
  let util busy base_v = float_of_int (busy - base_v) /. float_of_int cfg.duration in
  let all_groups = groups @ !spawned_groups in
  (* Per-tenant stack estimate: dynamic groups advance their windows on
     every tick, so a tenant with groups of its own aggregates their
     tick samples; static/AIMD groups (and tenants under a group shared
     with other tenants) kept windows open since warmup, so a final
     peek covers the whole measured period.  The per-vantage detail is
     reported for a single connection only. *)
  let tenant_estimate i s =
    let own_groups =
      List.filter_map
        (fun (_, ti, ctrl) -> if ti = Some i then Some ctrl else None)
        all_groups
    in
    let dynamic = match s.mode with Control.Dynamic _ -> true | _ -> false in
    if dynamic && own_groups <> [] then
      let summaries = List.map (Control.sample_summary ~warmup_until) own_groups in
      let lat =
        match summaries with
        | [ (one, _) ] -> one
        | _ ->
          let weighted, weight =
            List.fold_left
              (fun (acc, w) (lat, tput) ->
                match lat with
                | Some us when tput > 0.0 -> (acc +. (us *. tput), w +. tput)
                | Some _ | None -> (acc, w))
              (0.0, 0.0) summaries
          in
          if weight > 0.0 then Some (weighted /. weight) else None
      in
      (lat, None, None)
    else
      let acc = E2e.Aggregate.acc () in
      Control.estimate_socks ~advance:false
        (fun f -> iter_entries s ~f:(fun e -> if not e.retired then f e.csock))
        ~at acc;
      let agg = E2e.Aggregate.result acc in
      let local, remote =
        if agg.latency_ns <> None && acc.estimates = 1.0 then
          ( ns_opt_to_us (E2e.Aggregate.known acc.last_local_ns),
            ns_opt_to_us (E2e.Aggregate.known acc.last_remote_ns) )
        else (None, None)
      in
      (ns_opt_to_us agg.latency_ns, local, remote)
  in
  (* Lifetime request accounting in one pass over every connection
     (live and retired alike), summed per tenant and per shard, so
     issued = completed_total + outstanding_end closes for both. *)
  let n_tenants = List.length states in
  let t_issued = Array.make n_tenants 0 and t_completed = Array.make n_tenants 0 in
  let t_outstanding = Array.make n_tenants 0 and t_toggles = Array.make n_tenants 0 in
  let s_conns = Array.make cores 0 and s_issued = Array.make cores 0 in
  let s_completed = Array.make cores 0 and s_outstanding = Array.make cores 0 in
  let add a i v = a.(i) <- a.(i) + v in
  List.iteri
    (fun i s ->
      iter_entries s ~f:(fun e ->
          let issued = Kv.Client.issued e.client and completed = Kv.Client.completed e.client in
          let outstanding = Kv.Client.outstanding e.client in
          add t_issued i issued;
          add t_completed i completed;
          add t_outstanding i outstanding;
          add t_toggles i (Tcp.Socket.nagle_toggles e.csock);
          add s_conns e.shard 1;
          add s_issued e.shard issued;
          add s_completed e.shard completed;
          add s_outstanding e.shard outstanding))
    states;
  let tenant_results =
    List.mapi
      (fun i s ->
        let completed = Recorder.count s.recorder in
        let est_us, est_local, est_remote = tenant_estimate i s in
        {
          t_name = s.spec.name;
          t_offered_rps = Arrival.rate s.arrival;
          t_achieved_rps = float_of_int completed /. duration_s;
          t_completed = completed;
          t_issued = t_issued.(i);
          t_completed_total = t_completed.(i);
          t_outstanding_end = t_outstanding.(i);
          t_mean_us = Recorder.mean_us s.recorder;
          t_p50_us = Recorder.p50_us s.recorder;
          t_p99_us = Recorder.p99_us s.recorder;
          t_under_slo = Recorder.under_slo_fraction s.recorder ~slo_us:s.spec.slo_us;
          t_estimated_us = est_us;
          t_estimated_local_us = est_local;
          t_estimated_remote_us = est_remote;
          t_client_app_util = util (Sim.Cpu.busy_ns s.client_cpu) s.base_app;
          t_client_irq_util = util (Sim.Cpu.busy_ns s.client_irq) s.base_irq;
          t_nagle_toggles = t_toggles.(i);
          t_conns_opened = s.opened_mid;
          t_conns_closed = s.closed_mid;
        })
      states
  in
  (* The single-run detail over a sole tenant's connections, in one
     pass. *)
  let detail s =
    let pkts = ref 0 and dropped = ref 0 and corrupted = ref 0 and rejected = ref 0 in
    let wakeups = ref 0 and gro_batches = ref 0 and gro_segments = ref 0 in
    let batches = ref (Sim.Stats.Summary.create ()) and p99_est = ref None in
    let hints = ref [] and server_hints = ref [] in
    Shard.Flat.iter s.entries ~f:(fun i e ->
        let hint0, server_hint0 =
          if i < Array.length s.hint_base then
            match s.hint_base.(i) with
            | Some (h, sh) -> (Some h, sh)
            | None -> (None, None)
          else (None, None)
        in
        let ab = Tcp.Conn.link_ab e.conn and ba = Tcp.Conn.link_ba e.conn in
        let gro = Tcp.Conn.gro_b e.conn in
        pkts := !pkts + Tcp.Conn.total_packets e.conn;
        dropped := !dropped + Tcp.Link.dropped ab + Tcp.Link.dropped ba;
        corrupted := !corrupted + Tcp.Link.corrupted_shares ab + Tcp.Link.corrupted_shares ba;
        rejected := !rejected + rejected_shares e.csock + rejected_shares e.ssock;
        wakeups := !wakeups + Kv.Server.wakeups e.server;
        gro_batches := !gro_batches + Tcp.Gro.batches gro;
        gro_segments := !gro_segments + Tcp.Gro.segments gro;
        batches := Sim.Stats.Summary.merge !batches (Kv.Server.batch_sizes e.server);
        (* the worst per-connection tail *)
        (match (Kv.Client.p99_estimate_ns e.client, !p99_est) with
        | Some ns, Some worst -> p99_est := Some (Float.max (ns /. 1e3) worst)
        | Some ns, None -> p99_est := Some (ns /. 1e3)
        | None, _ -> ());
        hints :=
          hint_input hint0 (Some (E2e.Hints.share (Kv.Client.hint_tracker e.client) ~at))
          :: !hints;
        server_hints :=
          hint_input server_hint0 (Option.map snd (Tcp.Socket.remote_hint_window e.ssock))
          :: !server_hints);
    {
      d_hint_estimated_us = hint_estimate_us !hints;
      d_hint_server_estimated_us = hint_estimate_us !server_hints;
      d_packets = !pkts - s.base_packets;
      d_link_dropped = !dropped;
      d_shares_corrupted = !corrupted;
      d_shares_rejected = !rejected;
      d_server_batch_mean = Sim.Stats.Summary.mean !batches;
      d_server_wakeups = !wakeups;
      d_server_gro_merge =
        (if !gro_batches = 0 then 0.0
         else float_of_int !gro_segments /. float_of_int !gro_batches);
      d_srtt_us =
        (* the first connection's *)
        ns_opt_to_us
          (Option.map float_of_int
             (Tcp.Rtt.srtt (Tcp.Socket.rtt (Shard.Flat.get s.entries 0).csock)));
      d_p99_est_us = !p99_est;
    }
  in
  (* Fairness over goodput fractions (achieved/offered) so tenants with
     very different offered loads are comparable. *)
  let goodput =
    List.map (fun r -> r.t_achieved_rps /. r.t_offered_rps) tenant_results
  in
  let shard_results =
    List.init cores (fun k ->
        let rec_k = sh_recorders.(k) in
        {
          sh_index = k;
          sh_conns = s_conns.(k);
          sh_issued = s_issued.(k);
          sh_completed_total = s_completed.(k);
          sh_outstanding_end = s_outstanding.(k);
          sh_completed = Recorder.count rec_k;
          sh_achieved_rps = float_of_int (Recorder.count rec_k) /. duration_s;
          sh_mean_us = Recorder.mean_us rec_k;
          sh_p99_us = Recorder.p99_us rec_k;
          sh_app_util =
            util (Sim.Cpu.busy_ns (Shard.Pool.cpu pool k)) b_sh_app.(k);
          sh_irq_util =
            util (Sim.Cpu.busy_ns (Shard.Pool.irq pool k)) b_sh_irq.(k);
        })
  in
  {
    tenants = tenant_results;
    shards = shard_results;
    groups =
      List.map
        (fun (gid, _, ctrl) ->
          {
            g_id = gid;
            g_final_mode = Control.final_mode ctrl;
            g_final_batch_limit = Control.final_batch_limit ctrl;
            g_degrade_freezes = Control.degrade_freezes ctrl;
            g_degrade_thaws = Control.degrade_thaws ctrl;
            g_degrade_frozen_end = Control.degrade_frozen_end ctrl;
            g_samples = Control.samples ctrl;
          })
        all_groups;
    fleet_achieved_rps = float_of_int (Recorder.count fleet_recorder) /. duration_s;
    fleet_mean_us = Recorder.mean_us fleet_recorder;
    fleet_p99_us = Recorder.p99_us fleet_recorder;
    goodput_max_min_ratio = E2e.Aggregate.max_min_ratio goodput;
    goodput_jain = E2e.Aggregate.jain goodput;
    server_app_util =
      List.fold_left (fun acc r -> acc +. r.sh_app_util) 0.0 shard_results;
    server_irq_util =
      List.fold_left (fun acc r -> acc +. r.sh_irq_util) 0.0 shard_results;
    detail = (match states with [ s ] -> Some (detail s) | _ -> None);
    observability =
      Option.map (Observe.output ~until_us:(float_of_int total /. 1e3)) obs;
  }
