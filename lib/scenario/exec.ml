(* Compile a parsed {!Spec} into a {!Loadgen.Fleet.config} and run it.
   [compare_static] runs the headline three-way experiment: the
   scenario as written versus the two global static modes, with a
   per-tenant verdict on whether each configuration stays within [tol]
   of that tenant's best static latency. *)

module Fleet = Loadgen.Fleet
module Control = Loadgen.Control

let to_batching : Spec.batching -> Control.batching = function
  | Spec.On -> Control.Static_on
  | Spec.Off -> Control.Static_off
  | Spec.Dynamic epsilon ->
    Control.Dynamic { Control.default_dynamic with epsilon }
  | Spec.Aimd -> Control.Aimd_limit Control.default_aimd

let to_workload = function
  | Spec.Set_only -> Loadgen.Workload.paper_set_only
  | Spec.Mixed -> Loadgen.Workload.paper_mixed
  | Spec.Small -> Loadgen.Workload.small_requests

let span_of_ms ms = Sim.Time.ns (int_of_float (ms *. 1e6))
let span_of_us us = Sim.Time.ns (int_of_float (us *. 1e3))

let to_envelope : Spec.envelope -> Loadgen.Arrival.envelope = function
  | Spec.Flat | Spec.Replay _ -> Loadgen.Arrival.Flat
  | Spec.Square { period_ms; duty; high } ->
    Loadgen.Arrival.Square { period_us = period_ms *. 1e3; duty; high }
  | Spec.Ramp { period_ms; from_f; to_f } ->
    Loadgen.Arrival.Ramp { period_us = period_ms *. 1e3; from_f; to_f }
  | Spec.Steps steps ->
    Loadgen.Arrival.Steps (List.map (fun (at_ms, f) -> (at_ms *. 1e3, f)) steps)

(* Replay envelopes name a gap-trace file; the load happens here, at
   compile time, so parse stays total and pure.  An unreadable or
   malformed trace raises [Failure] with the loader's line-numbered
   message. *)
let to_replay_gaps : Spec.envelope -> int array option = function
  | Spec.Replay path -> (
    match Sim.Directive.file Loadgen.Trace.gaps_of_string path with
    | Ok gaps -> Some gaps
    | Error msg -> failwith ("scenario: " ^ msg))
  | _ -> None

let to_churn (c : Spec.churn) : Fleet.churn =
  {
    Fleet.arrive_rps = c.c_arrive_rps;
    depart_rps = c.c_depart_rps;
    min_conns = c.c_min;
    max_conns = c.c_max;
    script = List.map (fun (at_ms, d) -> (span_of_ms at_ms, d)) c.c_script;
  }

let to_tenant (t : Spec.tenant) : Fleet.tenant =
  {
    Fleet.name = t.name;
    n_conns = t.conns;
    rate_rps = t.rate_rps;
    burst = t.burst;
    workload = to_workload t.mix;
    cpu_multiplier = t.cpu_mult;
    link = { Tcp.Conn.default_link with prop_delay = span_of_us t.link_us };
    slo_us = t.slo_us;
    batching = to_batching t.batching;
    envelope = to_envelope t.envelope;
    replay_gaps = to_replay_gaps t.envelope;
    trace = None;
    churn = Option.map to_churn t.churn;
  }

let to_fleet (s : Spec.t) : Fleet.config =
  {
    (Fleet.default_config ~tenants:(List.map to_tenant s.tenants)) with
    seed = s.seed;
    warmup = span_of_ms s.warmup_ms;
    duration = span_of_ms s.duration_ms;
    scope = s.scope;
    batching = to_batching s.batching;
    cores = s.cores;
    lb = s.lb;
  }

let run ?observe s =
  let cfg = to_fleet s in
  Fleet.run { cfg with observe }

(* {2 Static comparison} *)

type tenant_verdict = {
  v_name : string;
  v_candidate_us : float;
  v_on_us : float;
  v_off_us : float;
  v_best_us : float;  (* best of the three configurations for this tenant *)
  v_candidate_fits : bool;  (* candidate <= (1+tol) * best *)
}

type comparison = {
  tol : float;
  candidate : Fleet.result;
  static_on : Fleet.result;
  static_off : Fleet.result;
  verdicts : tenant_verdict list;
  on_fits_all : bool;
  off_fits_all : bool;
  no_global_static_fits : bool;
  candidate_fits_all : bool;
}

let compare_static ?(tol = 0.10) ?(map = List.map) (s : Spec.t) =
  if tol < 0.0 then invalid_arg "Scenario.Exec.compare_static: tol must be >= 0";
  let base = to_fleet s in
  let static (mode : Spec.batching) =
    { base with Fleet.scope = Fleet.Global; batching = to_batching mode }
  in
  (* The three runs are independent simulations; [map] lets callers fan
     them out over domains (results must come back in input order). *)
  let candidate, static_on, static_off =
    match map Fleet.run [ base; static Spec.On; static Spec.Off ] with
    | [ c; on; off ] -> (c, on, off)
    | _ -> assert false
  in
  let fits mean best = mean <= (1.0 +. tol) *. best in
  let verdicts =
    List.map
      (fun ((c : Fleet.tenant_result), ((on : Fleet.tenant_result), off)) ->
        (* A tenant's best is the best any of the three configurations
           achieved for it — under a shared server a global mode can be
           bad for *every* tenant at once (e.g. nagle-off melting the
           IRQ core), and judging against global statics alone would
           let that mode win by default. *)
        let best =
          Float.min c.Fleet.t_mean_us
            (Float.min on.Fleet.t_mean_us off.Fleet.t_mean_us)
        in
        {
          v_name = c.Fleet.t_name;
          v_candidate_us = c.Fleet.t_mean_us;
          v_on_us = on.Fleet.t_mean_us;
          v_off_us = off.Fleet.t_mean_us;
          v_best_us = best;
          v_candidate_fits = fits c.Fleet.t_mean_us best;
        })
      (List.combine candidate.Fleet.tenants
         (List.combine static_on.Fleet.tenants static_off.Fleet.tenants))
  in
  let on_fits_all = List.for_all (fun v -> fits v.v_on_us v.v_best_us) verdicts in
  let off_fits_all = List.for_all (fun v -> fits v.v_off_us v.v_best_us) verdicts in
  {
    tol;
    candidate;
    static_on;
    static_off;
    verdicts;
    on_fits_all;
    off_fits_all;
    no_global_static_fits = (not on_fits_all) && not off_fits_all;
    candidate_fits_all = List.for_all (fun v -> v.v_candidate_fits) verdicts;
  }
