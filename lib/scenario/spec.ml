(* Declarative fleet scenarios, one directive per line in the style of
   [Fault.Plan]: a [fleet] line sets run-wide knobs and each [tenant]
   line adds one tenant.  The spec is symbolic — batching modes and
   workload mixes are names, times are numbers — so that [to_string]
   prints a canonical form and [of_string (to_string s) = Ok s]. *)

type batching = On | Off | Dynamic of float  (* exploration epsilon *) | Aimd

let batching_to_string = function
  | On -> "on"
  | Off -> "off"
  | Dynamic _ -> "dynamic"
  | Aimd -> "aimd"

type mix = Set_only | Mixed | Small

let mix_to_string = function
  | Set_only -> "set_only"
  | Mixed -> "mixed"
  | Small -> "small"

let mix_of_string = function
  | "set_only" -> Ok Set_only
  | "mixed" -> Ok Mixed
  | "small" -> Ok Small
  | s -> Error (Printf.sprintf "unknown mix %S (want set_only|mixed|small)" s)

type scope = Loadgen.Fleet.scope = Global | Per_tenant | Per_conn

let scope_of_string = function
  | "global" -> Ok Global
  | "per_tenant" -> Ok Per_tenant
  | "per_conn" -> Ok Per_conn
  | s -> Error (Printf.sprintf "unknown scope %S (want global|per_tenant|per_conn)" s)

type envelope =
  | Flat
  | Square of { period_ms : float; duty : float; high : float }
  | Ramp of { period_ms : float; from_f : float; to_f : float }
  | Steps of (float * float) list  (* (at_ms, factor) *)
  | Replay of string  (* gap-trace file, one µs gap per line *)

type churn = {
  c_arrive_rps : float;
  c_depart_rps : float;
  c_min : int;
  c_max : int;
  c_script : (float * int) list;  (* (at_ms, ±delta) *)
}

type tenant = {
  name : string;
  conns : int;
  rate_rps : float;
  burst : int;
  mix : mix;
  cpu_mult : float;
  link_us : float;
  slo_us : float;
  batching : batching;
  envelope : envelope;
  churn : churn option;
}

let default_epsilon = Loadgen.Control.default_dynamic.Loadgen.Control.epsilon

let default_tenant ~name ~rate_rps =
  {
    name;
    conns = 1;
    rate_rps;
    burst = 1;
    mix = Set_only;
    cpu_mult = 1.0;
    link_us = 10.0;
    slo_us = 500.0;
    batching = Off;
    envelope = Flat;
    churn = None;
  }

type t = {
  seed : int;
  warmup_ms : float;
  duration_ms : float;
  scope : scope;
  batching : batching;
  cores : int;
  lb : Shard.Lb.policy;
  tenants : tenant list;
}

let default =
  {
    seed = 42;
    warmup_ms = 100.0;
    duration_ms = 400.0;
    scope = Global;
    batching = Off;
    cores = 1;
    lb = Shard.Lb.Consistent_hash;
    tenants = [];
  }

(* {2 Parsing} *)

module D = Sim.Directive

let ( let* ) = Result.bind

let ms = Sim.Time.ms 1
let us = Sim.Time.us 1

let positive key v =
  if v > 0.0 then Ok v else Error (Printf.sprintf "%s=%g must be positive" key v)

(* The batching mode plus its (optional) dynamic-only epsilon key. *)
let batching_of pairs ~default =
  let name =
    Option.value (List.assoc_opt "batching" pairs) ~default:(batching_to_string default)
  in
  let eps_given = List.mem_assoc "epsilon" pairs in
  match name with
  | "on" | "off" | "aimd" when eps_given ->
    Error (Printf.sprintf "epsilon only applies to batching=dynamic (got %s)" name)
  | "on" -> Ok On
  | "off" -> Ok Off
  | "aimd" -> Ok Aimd
  | "dynamic" ->
    let inherited = match default with Dynamic e -> e | _ -> default_epsilon in
    let* eps = D.get pairs "epsilon" D.number ~default:inherited in
    if eps < 0.0 || eps >= 1.0 then
      Error (Printf.sprintf "epsilon=%g out of range [0,1)" eps)
    else Ok (Dynamic eps)
  | s -> Error (Printf.sprintf "unknown batching %S (want on|off|dynamic|aimd)" s)

let fleet_keys = [ "seed"; "warmup_ms"; "duration_ms"; "scope"; "batching"; "epsilon" ]

let parse_fleet spec pairs =
  let* seed = D.get pairs "seed" D.integer ~default:spec.seed in
  let* warmup_ms = D.get pairs "warmup_ms" (D.number ~unit:ms) ~default:spec.warmup_ms in
  let* duration_ms =
    D.get pairs "duration_ms" (D.number ~unit:ms) ~default:spec.duration_ms
  in
  let* duration_ms = positive "duration_ms" duration_ms in
  let* scope =
    match List.assoc_opt "scope" pairs with
    | None -> Ok spec.scope
    | Some v -> scope_of_string v
  in
  let* batching = batching_of pairs ~default:spec.batching in
  if warmup_ms < 0.0 then Error (Printf.sprintf "warmup_ms=%g must be >= 0" warmup_ms)
  else Ok { spec with seed; warmup_ms; duration_ms; scope; batching }

(* The server tier: how many shards (simulated cores) and which
   front-LB policy steers connections onto them. *)
let parse_server spec pairs =
  let* cores = D.get pairs "cores" D.integer ~default:spec.cores in
  let* lb =
    match List.assoc_opt "lb" pairs with
    | None -> Ok spec.lb
    | Some v -> (
      match Shard.Lb.policy_of_string v with
      | Some p -> Ok p
      | None ->
        Error
          (Printf.sprintf
             "unknown lb %S (want consistent_hash|least_loaded|round_robin)" v))
  in
  if cores < 1 then Error (Printf.sprintf "cores=%d must be >= 1" cores)
  else Ok { spec with cores; lb }

let valid_name name =
  name <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-')
       name

(* One [at_ms:value] item of a comma-separated list, e.g.
   [env_steps=100:4,200:1] or [churn_script=150:+4,250:-4]. *)
let at_ms_pair read item =
  match String.index_opt item ':' with
  | None -> Error (Printf.sprintf "expected at:value pairs, got %S" item)
  | Some i ->
    let* at = D.number ~unit:ms (String.sub item 0 i) in
    let* v = read (String.sub item (i + 1) (String.length item - i - 1)) in
    if at < 0.0 then Error (Printf.sprintf "time %g must be >= 0" at) else Ok (at, v)

let env_keys =
  [ "env_period_ms"; "env_duty"; "env_high"; "env_from"; "env_to"; "env_steps"; "env_trace" ]

let envelope_of pairs =
  let reject_stray allowed =
    match
      List.find_opt (fun k -> List.mem_assoc k pairs && not (List.mem k allowed)) env_keys
    with
    | Some k -> Error (Printf.sprintf "%s does not apply to this envelope" k)
    | None -> Ok ()
  in
  let positive_of ?unit key =
    let* v = D.need pairs key (D.number ?unit) in
    positive key v
  in
  match List.assoc_opt "envelope" pairs with
  | None -> (
    match List.find_opt (fun k -> List.mem_assoc k pairs) env_keys with
    | Some k -> Error (Printf.sprintf "%s requires an envelope= clause" k)
    | None -> Ok Flat)
  | Some "flat" ->
    let* () = reject_stray [] in
    Ok Flat
  | Some "square" ->
    let* () = reject_stray [ "env_period_ms"; "env_duty"; "env_high" ] in
    let* period_ms = positive_of ~unit:ms "env_period_ms" in
    let* duty = D.get pairs "env_duty" D.number ~default:0.5 in
    let* high = positive_of "env_high" in
    if duty <= 0.0 || duty >= 1.0 then
      Error (Printf.sprintf "env_duty=%g out of range (0,1)" duty)
    else Ok (Square { period_ms; duty; high })
  | Some "ramp" ->
    let* () = reject_stray [ "env_period_ms"; "env_from"; "env_to" ] in
    let* period_ms = positive_of ~unit:ms "env_period_ms" in
    let* from_f = positive_of "env_from" in
    let* to_f = positive_of "env_to" in
    Ok (Ramp { period_ms; from_f; to_f })
  | Some "steps" ->
    let* () = reject_stray [ "env_steps" ] in
    let factor b =
      let* f = D.number b in
      if f <= 0.0 then Error (Printf.sprintf "factor %g must be positive" f) else Ok f
    in
    let* steps = D.need pairs "env_steps" (D.list (at_ms_pair factor)) in
    let rec sorted = function
      | (a, _) :: ((b, _) :: _ as rest) ->
        if a >= b then
          Error (Printf.sprintf "env_steps: times must be strictly increasing (%g >= %g)" a b)
        else sorted rest
      | _ -> Ok (Steps steps)
    in
    sorted steps
  | Some "replay" ->
    let* () = reject_stray [ "env_trace" ] in
    (match List.assoc_opt "env_trace" pairs with
    | Some path when path <> "" -> Ok (Replay path)
    | Some _ -> Error "env_trace: path must be non-empty"
    | None -> Error "missing required key \"env_trace\"")
  | Some s ->
    Error (Printf.sprintf "unknown envelope %S (want flat|square|ramp|steps|replay)" s)

let churn_keys =
  [ "churn_arrive_rps"; "churn_depart_rps"; "churn_min"; "churn_max"; "churn_script" ]

let churn_of pairs ~conns =
  if not (List.exists (fun k -> List.mem_assoc k pairs) churn_keys) then Ok None
  else
    let* c_arrive_rps = D.get pairs "churn_arrive_rps" D.number ~default:0.0 in
    let* c_depart_rps = D.get pairs "churn_depart_rps" D.number ~default:0.0 in
    let* c_min = D.get pairs "churn_min" D.integer ~default:1 in
    let* c_max = D.get pairs "churn_max" D.integer ~default:64 in
    let delta b =
      let* d = D.integer b in
      if d = 0 then Error "delta must be non-zero" else Ok d
    in
    let* c_script = D.get pairs "churn_script" (D.list (at_ms_pair delta)) ~default:[] in
    if c_arrive_rps < 0.0 then
      Error (Printf.sprintf "churn_arrive_rps=%g must be >= 0" c_arrive_rps)
    else if c_depart_rps < 0.0 then
      Error (Printf.sprintf "churn_depart_rps=%g must be >= 0" c_depart_rps)
    else if c_min < 1 then Error (Printf.sprintf "churn_min=%d must be >= 1" c_min)
    else if c_max < c_min then
      Error (Printf.sprintf "churn_max=%d must be >= churn_min=%d" c_max c_min)
    else if conns < c_min || conns > c_max then
      Error
        (Printf.sprintf "conns=%d must lie within [churn_min=%d, churn_max=%d]" conns
           c_min c_max)
    else Ok (Some { c_arrive_rps; c_depart_rps; c_min; c_max; c_script })

let tenant_keys =
  [
    "name"; "conns"; "rate_rps"; "burst"; "mix"; "cpu_mult"; "link_us"; "slo_us";
    "batching"; "epsilon"; "envelope";
  ]
  @ env_keys @ churn_keys

let parse_tenant spec pairs =
  let* name =
    match List.assoc_opt "name" pairs with
    | Some n when valid_name n -> Ok n
    | Some n -> Error (Printf.sprintf "bad tenant name %S (want [A-Za-z0-9_-]+)" n)
    | None -> Error "missing required key \"name\""
  in
  if List.exists (fun t -> t.name = name) spec.tenants then
    Error (Printf.sprintf "duplicate tenant name %S" name)
  else
    let* rate_rps = D.need pairs "rate_rps" D.number in
    let* rate_rps = positive "rate_rps" rate_rps in
    let d = default_tenant ~name ~rate_rps in
    let* conns = D.get pairs "conns" D.integer ~default:d.conns in
    let* burst = D.get pairs "burst" D.integer ~default:d.burst in
    let* mix =
      match List.assoc_opt "mix" pairs with
      | None -> Ok d.mix
      | Some v -> mix_of_string v
    in
    let* cpu_mult = D.get pairs "cpu_mult" D.number ~default:d.cpu_mult in
    let* cpu_mult = positive "cpu_mult" cpu_mult in
    let* link_us = D.get pairs "link_us" (D.number ~unit:us) ~default:d.link_us in
    let* slo_us = D.get pairs "slo_us" (D.number ~unit:us) ~default:d.slo_us in
    let* slo_us = positive "slo_us" slo_us in
    let* batching = batching_of pairs ~default:d.batching in
    let* envelope = envelope_of pairs in
    let* churn = churn_of pairs ~conns in
    if conns < 1 then Error (Printf.sprintf "conns=%d must be >= 1" conns)
    else if burst < 1 then Error (Printf.sprintf "burst=%d must be >= 1" burst)
    else if link_us < 0.0 then Error (Printf.sprintf "link_us=%g must be >= 0" link_us)
    else
      let tenant =
        {
          name; conns; rate_rps; burst; mix; cpu_mult; link_us; slo_us; batching;
          envelope; churn;
        }
      in
      Ok { spec with tenants = spec.tenants @ [ tenant ] }

let parse_directive spec = function
  | [] -> Ok spec
  | verb :: fields -> (
    let directive keys parse =
      let* pairs = D.pairs ~keys fields in
      parse spec pairs
    in
    match verb with
    | "fleet" -> directive fleet_keys parse_fleet
    | "server" -> directive [ "cores"; "lb" ] parse_server
    | "tenant" -> directive tenant_keys parse_tenant
    | verb ->
      Error (Printf.sprintf "unknown directive %S (want fleet|server|tenant)" verb))

let of_string text =
  let* spec = D.fold D.Directives ~what:"scenario" parse_directive default text in
  if spec.tenants = [] then Error "scenario: at least one tenant line required" else Ok spec

(* {2 Printing} *)

let pp_batching ppf = function
  | Dynamic eps -> Format.fprintf ppf "batching=dynamic epsilon=%g" eps
  | b -> Format.fprintf ppf "batching=%s" (batching_to_string b)

let pp_pair_list sep item ppf xs =
  List.iteri
    (fun i x ->
      if i > 0 then Format.pp_print_string ppf sep;
      item ppf x)
    xs

let pp_envelope ppf = function
  | Flat -> ()
  | Square { period_ms; duty; high } ->
    Format.fprintf ppf " envelope=square env_period_ms=%g env_duty=%g env_high=%g"
      period_ms duty high
  | Ramp { period_ms; from_f; to_f } ->
    Format.fprintf ppf " envelope=ramp env_period_ms=%g env_from=%g env_to=%g"
      period_ms from_f to_f
  | Steps steps ->
    Format.fprintf ppf " envelope=steps env_steps=%a"
      (pp_pair_list "," (fun ppf (at, f) -> Format.fprintf ppf "%g:%g" at f))
      steps
  | Replay path -> Format.fprintf ppf " envelope=replay env_trace=%s" path

let pp_churn ppf = function
  | None -> ()
  | Some c ->
    Format.fprintf ppf " churn_arrive_rps=%g churn_depart_rps=%g churn_min=%d churn_max=%d"
      c.c_arrive_rps c.c_depart_rps c.c_min c.c_max;
    if c.c_script <> [] then
      Format.fprintf ppf " churn_script=%a"
        (pp_pair_list "," (fun ppf (at, d) -> Format.fprintf ppf "%g:%+d" at d))
        c.c_script

let pp ppf t =
  Format.fprintf ppf "fleet seed=%d warmup_ms=%g duration_ms=%g scope=%s %a@\n"
    t.seed t.warmup_ms t.duration_ms
    (Loadgen.Fleet.scope_label t.scope)
    pp_batching t.batching;
  if t.cores <> 1 || t.lb <> Shard.Lb.Consistent_hash then
    Format.fprintf ppf "server cores=%d lb=%s@\n" t.cores
      (Shard.Lb.policy_to_string t.lb);
  List.iter
    (fun tn ->
      Format.fprintf ppf
        "tenant name=%s conns=%d rate_rps=%g burst=%d mix=%s cpu_mult=%g link_us=%g slo_us=%g %a%a%a@\n"
        tn.name tn.conns tn.rate_rps tn.burst (mix_to_string tn.mix) tn.cpu_mult
        tn.link_us tn.slo_us pp_batching tn.batching pp_envelope tn.envelope
        pp_churn tn.churn)
    t.tenants

let to_string t = Format.asprintf "%a" pp t
