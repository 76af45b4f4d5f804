(* The four reference workloads.  Each is an open-loop simulation whose
   inputs derive from the seed alone; the simulated length is fixed per
   workload so a seed always yields the same simulated output, however
   long the benchmark measures. *)

module R = Loadgen.Runner
module F = Loadgen.Fleet

type sim = Single of R.config | Fleet of F.config
type outcome = Single_r of R.result | Fleet_r of F.result

type t = {
  name : string;
  why : string;
  conns : int;
  rate_rps : float;  (** offered load of one arrival process *)
  value_size : int;  (** SET value bytes *)
  heap_depth : int;
      (** pending engine events the sim.engine driver keeps queued: a
          few timers per connection plus the load generator's *)
  binlog : bool;  (** streams every trace record to a binary file *)
  config : seed:int -> sim;
}

let warmup = Sim.Time.ms 20

let single ~rate ~batching ~workload ~duration_ms ~seed =
  Single
    {
      (R.default_config ~rate_rps:rate ~batching) with
      R.seed;
      warmup;
      duration = Sim.Time.ms duration_ms;
      workload;
    }

let set64_dyn_config ~seed =
  single ~rate:100e3 ~batching:(R.Dynamic R.default_dynamic)
    ~workload:Loadgen.Workload.small_requests ~duration_ms:1000 ~seed

let fleet_tenants = 4
let fleet_conns_per_tenant = 2_500

let fleet_config ~seed =
  let tenants =
    List.init fleet_tenants (fun i ->
        {
          (F.default_tenant ~name:(Printf.sprintf "t%d" i) ~rate_rps:25e3) with
          F.n_conns = fleet_conns_per_tenant;
          workload = Loadgen.Workload.small_requests;
        })
  in
  Fleet
    {
      (F.default_config ~tenants) with
      F.seed;
      cores = 4;
      lb = Shard.Lb.Least_loaded;
      warmup;
      duration = Sim.Time.ms 100;
    }

let all =
  [
    {
      name = "set64_dyn";
      why =
        "1 conn, 64 B SET at 100 kRPS Poisson, dynamic Nagle: per-event and \
         per-segment cost dominate (engine, Nagle, exchange, estimator, control)";
      conns = 1;
      rate_rps = 100e3;
      value_size = 64;
      heap_depth = 16;
      binlog = false;
      config = set64_dyn_config;
    };
    {
      name = "set16k_off";
      why =
        "1 conn, 16 KiB SET at 50 kRPS, Nagle off: the byte path dominates \
         (segmentation, GRO, multi-segment RESP parsing); control is idle";
      conns = 1;
      rate_rps = 50e3;
      value_size = 16 * 1024;
      heap_depth = 16;
      binlog = false;
      config =
        (fun ~seed ->
          single ~rate:50e3 ~batching:R.Static_off
            ~workload:Loadgen.Workload.paper_set_only ~duration_ms:200 ~seed);
    };
    {
      name = "fleet10k_4shard";
      why =
        "4 tenants x 2.5k conns of 64 B SETs on 4 shards behind least_loaded LB, static \
         off: cost grows with connections (construction, steering, heap)";
      conns = fleet_tenants * fleet_conns_per_tenant;
      rate_rps = 25e3;
      value_size = 64;
      heap_depth = 2 * fleet_tenants * fleet_conns_per_tenant;
      binlog = false;
      config = fleet_config;
    };
    {
      name = "set64_binlog";
      why =
        "set64_dyn with every trace record streamed to a binary trace file: the \
         only workload exercising sim.trace and loadgen.observe";
      conns = 1;
      rate_rps = 100e3;
      value_size = 64;
      heap_depth = 16;
      binlog = true;
      config = set64_dyn_config;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The set-up probe: the same configuration run for the shortest
   simulated time the run API accepts, so its wall time is building the
   hosts, connections, estimators and (for fleets) shards. *)
let probe = function
  | Single c -> Single { c with R.warmup = Sim.Time.ns 1; duration = Sim.Time.ns 1 }
  | Fleet c -> Fleet { c with F.warmup = Sim.Time.ns 1; duration = Sim.Time.ns 1 }

let with_observe obs = function
  | Single c -> Single { c with R.observe = Some obs }
  | Fleet c -> Fleet { c with F.observe = Some obs }

let run = function
  | Single c -> Single_r (R.run c)
  | Fleet c -> Fleet_r (F.run c)

let completed_total = function
  | Single_r r -> r.R.completed_total
  | Fleet_r r ->
    List.fold_left (fun acc (t : F.tenant_result) -> acc + t.t_completed_total) 0 r.F.tenants
