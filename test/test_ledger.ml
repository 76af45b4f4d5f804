(* Decision ledger + SLO fold on real runs: decision/outcome pairing,
   histogram accuracy against the traced completion stream, burn-rate
   behaviour under an injected latency step, and
   bit-identity of ledgered runs (repeats and across domains). *)

let big_ring = { Loadgen.Observe.default_config with trace_capacity = 1 lsl 19 }

let base_config ?(batching = Loadgen.Runner.Dynamic Loadgen.Runner.default_dynamic)
    ?(rate = 60e3) () =
  let base = Loadgen.Runner.default_config ~rate_rps:rate ~batching in
  {
    base with
    warmup = Sim.Time.ms 5;
    duration = Sim.Time.ms 30;
    observe = Some big_ring;
  }

let observability cfg =
  match (Loadgen.Runner.run cfg).observability with
  | Some o -> o
  | None -> Alcotest.fail "expected observability output"

(* The SLO report of the run's "client" id, folded from its records. *)
let client_slo (o : Loadgen.Observe.output) =
  let fold = Loadgen.Observe.slo_fold () in
  List.iter (Loadgen.Observe.slo_fold_record fold) o.records;
  match
    List.find_opt
      (fun (r : Loadgen.Observe.slo_report) -> r.r_id = "client")
      (Loadgen.Observe.slo_reports fold)
  with
  | Some rep -> rep
  | None -> Alcotest.fail "no client SLO report"

(* Inline trace payloads copied into nameable records. *)
type dec = {
  d_id : string;
  d_seq : int;
  d_on_us : float option;
  d_off_us : float option;
  d_mode : string;
  d_action : string;
  d_reason : string;
  d_frozen : bool;
}

type out = { o_id : string; o_seq : int; o_mean : float; o_p99 : float; o_n : int }

let decisions_of records =
  List.filter_map
    (fun (r : Sim.Trace.record) ->
      match r.event with
      | Sim.Trace.Decision_made
          { decision; on_us; off_us; mode; action; reason; frozen; _ } ->
        Some
          { d_id = r.id; d_seq = decision; d_on_us = on_us; d_off_us = off_us;
            d_mode = mode; d_action = action; d_reason = reason;
            d_frozen = frozen }
      | _ -> None)
    records

let outcomes_of records =
  List.filter_map
    (fun (r : Sim.Trace.record) ->
      match r.event with
      | Sim.Trace.Decision_outcome { decision; mean_us; p99_us; n } ->
        Some { o_id = r.id; o_seq = decision; o_mean = mean_us; o_p99 = p99_us; o_n = n }
      | _ -> None)
    records

(* Every decision of a seeded dynamic run pairs with exactly one
   outcome — except the run's final decision, which stays open — and
   sequence numbers count up gaplessly from 0. *)
let test_decision_outcome_pairing () =
  let o = observability (base_config ()) in
  let decisions = decisions_of o.records in
  let outcomes = outcomes_of o.records in
  Alcotest.(check bool) "dynamic run took decisions" true (decisions <> []);
  Alcotest.(check bool) "all under the runner's ledger group" true
    (List.for_all (fun d -> d.d_id = "run") decisions
    && List.for_all (fun u -> u.o_id = "run") outcomes);
  let n = List.length decisions in
  List.iteri
    (fun i d ->
      Alcotest.(check int) (Printf.sprintf "decision %d is gapless" i) i d.d_seq)
    decisions;
  (* one outcome per decision, in the same order, final decision open *)
  Alcotest.(check int) "every tenure but the last is closed" (n - 1)
    (List.length outcomes);
  List.iteri
    (fun i u ->
      Alcotest.(check int) (Printf.sprintf "outcome %d closes decision %d" i i)
        i u.o_seq;
      Alcotest.(check bool) "outcome counts are non-negative" true (u.o_n >= 0);
      if u.o_n > 0 then
        Alcotest.(check bool) "closed tenure has sane latencies" true
          (u.o_mean > 0.0 && u.o_p99 >= u.o_mean))
    outcomes;
  (* decision payloads are self-consistent *)
  List.iter
    (fun d ->
      Alcotest.(check bool) "toggler reason vocabulary" true
        (List.mem d.d_reason [ "explore"; "exploit"; "undersampled"; "forced" ]);
      Alcotest.(check bool) "modes are on/off" true
        (List.mem d.d_mode [ "on"; "off" ] && List.mem d.d_action [ "on"; "off" ]);
      (* exploiting requires both arms sampled *)
      if d.d_reason = "exploit" then
        Alcotest.(check bool) "exploit has both estimates" true
          (d.d_on_us <> None && d.d_off_us <> None))
    decisions

(* AIMD runs ledger their limit adjustments with the good/bad/hold
   vocabulary and carry the aggregate estimate on the on_us arm. *)
let test_aimd_ledger () =
  let o =
    observability
      (base_config
         ~batching:(Loadgen.Runner.Aimd_limit Loadgen.Runner.default_aimd) ())
  in
  let decisions = decisions_of o.records in
  Alcotest.(check bool) "aimd run took decisions" true (decisions <> []);
  let is_limit s = String.length s > 6 && String.sub s 0 6 = "limit=" in
  List.iter
    (fun d ->
      Alcotest.(check bool) "aimd reason vocabulary" true
        (List.mem d.d_reason [ "good"; "bad"; "hold" ]);
      Alcotest.(check bool) "aimd modes are limits" true
        (is_limit d.d_mode && is_limit d.d_action);
      Alcotest.(check bool) "aimd never freezes" false d.d_frozen)
    decisions

(* The streaming histogram p99 must sit within one log-bucket width of
   the exact nearest-rank p99 of the very completion stream the trace
   recorded. *)
let test_streaming_p99_vs_trace () =
  let o = observability (base_config ~batching:Loadgen.Runner.Static_off ()) in
  let lats =
    List.filter_map
      (fun (r : Sim.Trace.record) ->
        match r.event with
        | Sim.Trace.Request_done { latency_us } when r.id = "client" ->
          Some latency_us
        | _ -> None)
      o.records
  in
  Alcotest.(check bool) "trace kept completions" true (lats <> []);
  let sorted = Array.of_list lats in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let exact =
    sorted.(Stdlib.max 0 (int_of_float (ceil (0.99 *. float_of_int n)) - 1))
  in
  let rep = client_slo o in
  Alcotest.(check int) "fold saw every traced completion" n rep.r_total;
  match rep.r_p99_us with
  | None -> Alcotest.fail "no streaming p99"
  | Some p99 ->
    if Float.abs (p99 -. exact) > Sim.Histo.width_at exact +. 1e-9 then
      Alcotest.failf "streaming p99 %.3f more than a bucket from exact %.3f"
        p99 exact

(* An injected propagation-delay step pushes every request past the
   500 us SLO: burn stays within budget before the step and exceeds
   1.0 after it. *)
let test_burn_under_step_fault () =
  let plan = Result.get_ok (Fault.Plan.of_string "delay at_ms=20 us=700\n") in
  let cfg =
    { (base_config ~batching:Loadgen.Runner.Static_off ()) with
      fault = Some plan }
  in
  let rep = client_slo (observability cfg) in
  Alcotest.(check bool) "violations occurred" true (rep.r_violations > 0);
  Alcotest.(check bool) "attainment dropped below 1" true (rep.r_attainment < 1.0);
  Alcotest.(check bool) "budget burned past 1.0" true (rep.r_max_burn > 1.0);
  match rep.r_first_burn_us with
  | None -> Alcotest.fail "burn never crossed 1.0"
  | Some us ->
    Alcotest.(check bool) "no burn before the step" true (us >= 20_000.0)

(* Ledgered observed runs are a pure function of their config: a
   repeat reproduces every trace record and sample bit-identically. *)
let test_ledgered_run_bit_identical () =
  let cfg = base_config () in
  let a = Loadgen.Runner.run cfg and b = Loadgen.Runner.run cfg in
  Alcotest.(check bool) "repeat runs identical (observability included)" true
    (a = b)

(* The domain fan-out must not perturb ledgered observed runs: an
   on/off pair run on one domain equals the same pair on two, traces
   included. *)
let test_ledgered_pair_domains () =
  let base = base_config ~batching:Loadgen.Runner.Static_off () in
  let p1 = Loadgen.Sweep.run_pair ~domains:1 ~base ~rate_rps:60e3 () in
  let p2 = Loadgen.Sweep.run_pair ~domains:2 ~base ~rate_rps:60e3 () in
  Alcotest.(check bool) "domains 1 = domains 2 (observed, ledgered)" true
    (p1 = p2)

(* The staleness clock a decision records is the age of the freshest
   accepted share across the group: members without shares count for
   nothing, and a group with none reads -1. *)
let test_stale_clock () =
  let stale_clock shares =
    let engine = Sim.Engine.create () in
    let trace = Sim.Trace.create ~capacity:64 () in
    Sim.Trace.set_enabled trace true;
    let conns = Array.init 3 (fun _ -> Tcp.Conn.create engine ()) in
    List.iter
      (fun (i, t) ->
        let s : E2e.Queue_state.share = { time = t; total = 0; integral = 0.0 } in
        E2e.Estimator.ingest_remote
          (Tcp.Socket.estimator (Tcp.Conn.sock_a conns.(i)))
          ~at:t { unacked = s; unread = s; ackdelay = s })
      shares;
    ignore
      (Loadgen.Control.attach ~ledger:(E2e.Ledger.create ~trace ~group:"g") ~engine
         ~until:(Sim.Time.ms 1) ~rng:(Sim.Rng.create ~seed:1) ~fault_armed:false
         ~batching:(Loadgen.Control.Dynamic Loadgen.Control.default_dynamic)
         ~members:(fun f -> Array.iter (fun c -> f (Tcp.Conn.sock_a c) (Tcp.Conn.sock_b c)) conns)
         ());
    Sim.Engine.run_until engine (Sim.Time.ms 2);
    List.filter_map
      (fun (r : Sim.Trace.record) ->
        match r.event with Sim.Trace.Decision_made { stale_us; _ } -> Some stale_us | _ -> None)
      (Sim.Trace.records trace)
  in
  let us = Sim.Time.us in
  Alcotest.(check (list (float 0.0))) "freshest share" [ 700.0 ]
    (stale_clock [ (0, us 100); (2, us 300) ]);
  Alcotest.(check (list (float 0.0))) "no shares" [ -1.0 ] (stale_clock [])

let suite =
  [
    ( "ledger",
      [
        Alcotest.test_case "decision/outcome pairing (dynamic)" `Quick
          test_decision_outcome_pairing;
        Alcotest.test_case "aimd decisions" `Quick test_aimd_ledger;
        Alcotest.test_case "streaming p99 within one bucket of trace" `Quick
          test_streaming_p99_vs_trace;
        Alcotest.test_case "burn rate under a delay step" `Quick
          test_burn_under_step_fault;
        Alcotest.test_case "repeat runs bit-identical" `Quick
          test_ledgered_run_bit_identical;
        Alcotest.test_case "domains 1 = 2 with ledger attached" `Quick
          test_ledgered_pair_domains;
        Alcotest.test_case "staleness clock" `Quick test_stale_clock;
      ] );
  ]
