(** Declarative fleet scenarios.

    Line-oriented grammar in the style of {!Fault.Plan}: one directive
    per line, [#] starts a comment, keys are [key=value] tokens.

    {v
    # mixed bare-metal + VM fleet, one toggler per connection
    fleet seed=42 warmup_ms=100 duration_ms=400 scope=per_conn batching=off
    tenant name=bare conns=2 rate_rps=90000 cpu_mult=1 batching=dynamic
    tenant name=vm   conns=2 rate_rps=20000 cpu_mult=4 batching=dynamic
    v}

    [fleet] (optional, any position, later lines override) sets the
    run-wide knobs; each [tenant] line (at least one required) appends
    a tenant.  [batching] is one of [on|off|dynamic|aimd]; [epsilon]
    is only legal next to [batching=dynamic].  [scope] is one of
    [global|per_tenant|per_conn] and decides whether one batching
    controller spans the fleet, one per tenant, or one per connection
    (see {!Loadgen.Fleet.scope}).

    Time-varying load rides on two optional tenant clause families.
    [envelope=square|ramp|steps|replay|flat] wraps the arrival process
    in a rate envelope: square waves take [env_period_ms], [env_duty]
    (default 0.5) and [env_high]; ramps take [env_period_ms],
    [env_from] and [env_to]; stepped schedules take
    [env_steps=at_ms:factor,…] with strictly increasing times; replay
    takes [env_trace=path] naming a gap-trace file (one µs gap per
    line, loaded at execution time — see {!Loadgen.Trace.load_gaps}).
    [churn_*] keys declare connection lifecycle: [churn_arrive_rps] /
    [churn_depart_rps] Poisson connect/disconnect rates,
    [churn_min]/[churn_max] population bounds (defaults 1/64; [conns]
    must lie within), and [churn_script=at_ms:+n,at_ms:-n,…] scripted
    epochs.

    Lines, [key=value] pairs and numbers are read by {!Sim.Directive}:
    an unknown or repeated key is an error, every number must be
    finite, and [_ms]/[_us] times must fit the simulated clock.
    Parsing is total: errors come back as [Error "scenario line N: …"]
    with the 1-based line number.  {!to_string} prints a canonical form
    and round-trips: [of_string (to_string s) = Ok s]. *)

type batching =
  | On
  | Off
  | Dynamic of float  (** exploration epsilon, in [[0,1)] *)
  | Aimd

val batching_to_string : batching -> string
(** ["on"], ["off"], ["dynamic"], ["aimd"] — without the epsilon. *)

type mix = Set_only | Mixed | Small
(** {!Loadgen.Workload.paper_set_only} / [paper_mixed] /
    [small_requests]. *)

val mix_to_string : mix -> string
val mix_of_string : string -> (mix, string) result

type scope = Loadgen.Fleet.scope = Global | Per_tenant | Per_conn

val scope_of_string : string -> (scope, string) result

type envelope =
  | Flat  (** no modulation (the default; not printed) *)
  | Square of { period_ms : float; duty : float; high : float }
      (** flash crowd: factor [high] for the first [duty] of each period *)
  | Ramp of { period_ms : float; from_f : float; to_f : float }
      (** diurnal ramp: factor sweeps [from_f]→[to_f] each period *)
  | Steps of (float * float) list
      (** [(at_ms, factor)] piecewise-constant schedule, strictly
          increasing times *)
  | Replay of string
      (** gap-trace file path; replaces the base arrival process
          outright (loaded at execution time) *)

type churn = {
  c_arrive_rps : float;  (** Poisson connection arrivals; 0 disables *)
  c_depart_rps : float;  (** Poisson departures; 0 disables *)
  c_min : int;  (** population floor (>= 1) *)
  c_max : int;  (** population cap *)
  c_script : (float * int) list;  (** scripted [(at_ms, ±n)] epochs *)
}

type tenant = {
  name : string;  (** [[A-Za-z0-9_-]+], unique within the scenario *)
  conns : int;
  rate_rps : float;
  burst : int;
  mix : mix;
  cpu_mult : float;  (** 1 = bare metal, 4 = the paper's VM client *)
  link_us : float;  (** one-way propagation delay *)
  slo_us : float;
  batching : batching;  (** used under [per_tenant]/[per_conn] scopes *)
  envelope : envelope;
  churn : churn option;  (** [None] = fixed connection population *)
}

val default_tenant : name:string -> rate_rps:float -> tenant
(** 1 connection, Poisson, [set_only] mix, bare metal, 10 µs link,
    500 µs SLO, [Off], flat envelope, no churn. *)

val default_epsilon : float

type t = {
  seed : int;
  warmup_ms : float;
  duration_ms : float;
  scope : scope;
  batching : batching;  (** the fleet-wide group's mode under [Global] *)
  cores : int;  (** server shards; the [server cores=M] directive *)
  lb : Shard.Lb.policy;  (** front-LB policy; the [server lb=...] key *)
  tenants : tenant list;  (** in declaration order *)
}

val default : t
(** Seed 42, 100 ms warmup, 400 ms measured, [Global] scope, [Off],
    1 core behind a consistent-hash LB — and no tenants, so it does
    not parse back until one is added. *)

val of_string : string -> (t, string) result
(** Read a file with [Sim.Directive.file of_string]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
(** Canonical print; [of_string (to_string s) = Ok s]. *)
