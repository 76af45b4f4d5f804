(* Scenario grammar (parse/print round-trip, line-numbered errors),
   spec-to-fleet compilation, and the fleet engine itself: per-tenant
   accounting, scope-controlled batching groups, tenant-tagged
   observability and bit-identical determinism across repeats and
   domain counts. *)

module Spec = Scenario.Spec
module Exec = Scenario.Exec
module Fleet = Loadgen.Fleet

let parse_ok text =
  match Spec.of_string text with
  | Ok s -> s
  | Error msg -> Alcotest.failf "unexpected parse error: %s" msg

let parse_err text =
  match Spec.of_string text with
  | Ok _ -> Alcotest.failf "expected parse error for %S" text
  | Error msg -> msg

let check_prefix ~prefix msg =
  if not (String.length msg >= String.length prefix
          && String.sub msg 0 (String.length prefix) = prefix) then
    Alcotest.failf "error %S does not start with %S" msg prefix

(* {1 Grammar} *)

let example =
  "# mixed fleet\n\
   fleet seed=7 warmup_ms=10 duration_ms=40 scope=per_conn batching=off\n\
   tenant name=bare conns=2 rate_rps=70000 cpu_mult=1 batching=dynamic epsilon=0.02\n\
   tenant name=vm rate_rps=15000 mix=small cpu_mult=4 slo_us=2000 batching=dynamic\n"

let test_parse_example () =
  let s = parse_ok example in
  Alcotest.(check int) "seed" 7 s.Spec.seed;
  Alcotest.(check bool) "scope" true (s.Spec.scope = Spec.Per_conn);
  Alcotest.(check int) "tenants" 2 (List.length s.Spec.tenants);
  let bare = List.hd s.Spec.tenants and vm = List.nth s.Spec.tenants 1 in
  Alcotest.(check int) "bare conns" 2 bare.Spec.conns;
  Alcotest.(check bool) "bare epsilon" true (bare.Spec.batching = Spec.Dynamic 0.02);
  Alcotest.(check bool) "vm inherits default epsilon" true
    (vm.Spec.batching = Spec.Dynamic Spec.default_epsilon);
  Alcotest.(check bool) "vm mix" true (vm.Spec.mix = Spec.Small);
  Alcotest.(check (float 1e-9)) "vm slo" 2000.0 vm.Spec.slo_us;
  (* defaults fill everything the example omits *)
  Alcotest.(check int) "vm conns default" 1 vm.Spec.conns;
  Alcotest.(check (float 1e-9)) "vm link default" 10.0 vm.Spec.link_us

let test_roundtrip_example () =
  let s = parse_ok example in
  match Spec.of_string (Spec.to_string s) with
  | Ok s' -> Alcotest.(check bool) "parse (print s) = s" true (s = s')
  | Error msg -> Alcotest.failf "canonical form does not re-parse: %s" msg

(* Random specs from grammar-exact values: every float below prints
   under %g to the same decimal it was built from, so round-tripping is
   exact (the same trick Fault.Plan's tests use). *)
let gen_spec =
  let open QCheck.Gen in
  let nice_rate = oneofl [ 1000.0; 2500.0; 12.5; 70000.0; 2e6 ] in
  let gen_batching =
    oneofl [ Spec.On; Spec.Off; Spec.Aimd; Spec.Dynamic 0.05;
             Spec.Dynamic 0.125; Spec.Dynamic 0.0 ]
  in
  let gen_envelope =
    oneofl
      [
        Spec.Flat;
        Spec.Flat;
        Spec.Square { period_ms = 50.0; duty = 0.25; high = 10.0 };
        Spec.Square { period_ms = 100.0; duty = 0.5; high = 4.0 };
        Spec.Ramp { period_ms = 200.0; from_f = 0.5; to_f = 2.0 };
        Spec.Steps [ (10.0, 2.0); (20.0, 0.5) ];
        Spec.Steps [ (100.0, 4.0) ];
        Spec.Replay "traces/recorded.gaps";
      ]
  in
  let gen_churn =
    oneofl
      [
        None;
        None;
        Some
          {
            Spec.c_arrive_rps = 50.0;
            c_depart_rps = 25.0;
            c_min = 1;
            c_max = 8;
            c_script = [];
          };
        Some
          {
            Spec.c_arrive_rps = 0.0;
            c_depart_rps = 0.0;
            c_min = 1;
            c_max = 16;
            c_script = [ (150.0, 4); (250.0, -4) ];
          };
      ]
  in
  let gen_tenant i =
    let* conns = 1 -- 4 in
    let* rate_rps = nice_rate in
    let* burst = 1 -- 3 in
    let* mix = oneofl [ Spec.Set_only; Spec.Mixed; Spec.Small ] in
    let* cpu_mult = oneofl [ 0.5; 1.0; 2.0; 4.0 ] in
    let* link_us = oneofl [ 0.0; 2.5; 10.0; 100.0 ] in
    let* slo_us = oneofl [ 100.0; 500.0; 2000.0 ] in
    let* batching = gen_batching in
    let* envelope = gen_envelope in
    let* churn = gen_churn in
    return
      {
        Spec.name = Printf.sprintf "t%d" i;
        conns;
        rate_rps;
        burst;
        mix;
        cpu_mult;
        link_us;
        slo_us;
        batching;
        envelope;
        churn;
      }
  in
  let* seed = 0 -- 1000 in
  let* warmup_ms = oneofl [ 0.0; 12.5; 100.0 ] in
  let* duration_ms = oneofl [ 10.0; 62.5; 400.0 ] in
  let* scope = oneofl [ Spec.Global; Spec.Per_tenant; Spec.Per_conn ] in
  let* batching = gen_batching in
  let* cores = oneofl [ 1; 2; 4 ] in
  let* lb =
    oneofl
      [ Shard.Lb.Consistent_hash; Shard.Lb.Least_loaded; Shard.Lb.Round_robin ]
  in
  let* n = 1 -- 4 in
  let* tenants = flatten_l (List.init n gen_tenant) in
  return { Spec.seed; warmup_ms; duration_ms; scope; batching; cores; lb; tenants }

let prop_roundtrip =
  QCheck.Test.make ~name:"grammar round-trip: of_string (to_string s) = s"
    ~count:200
    (QCheck.make ~print:Spec.to_string gen_spec)
    (fun s -> Spec.of_string (Spec.to_string s) = Ok s)

let test_errors_carry_line_numbers () =
  check_prefix ~prefix:"scenario line 2:"
    (parse_err "tenant name=a rate_rps=1000\nbogus x=1\n");
  check_prefix ~prefix:"scenario line 3:"
    (parse_err "# comment\nfleet seed=1\ntenant name=a rate_rps=nope\n");
  check_prefix ~prefix:"scenario line 1:" (parse_err "fleet scope=sideways\n")

let test_duplicate_tenant_line_numbered () =
  (* The duplicate is rejected at ITS line, not the first occurrence's. *)
  let msg =
    parse_err
      "tenant name=a rate_rps=1000\n\
       tenant name=b rate_rps=2000\n\
       tenant name=a rate_rps=3000\n"
  in
  check_prefix ~prefix:"scenario line 3:" msg;
  let contains needle =
    let n = String.length needle and m = String.length msg in
    let rec find i = i + n <= m && (String.sub msg i n = needle || find (i + 1)) in
    find 0
  in
  Alcotest.(check bool) "names the duplicate" true
    (contains "duplicate tenant name \"a\"")

let test_rejects_malformed () =
  let cases =
    [
      ("", "no tenants");
      ("fleet seed=1\n", "fleet only");
      ("tenant rate_rps=10\n", "missing name");
      ("tenant name=a\n", "missing rate");
      ("tenant name=a rate_rps=0\n", "zero rate");
      ("tenant name=a rate_rps=-5\n", "negative rate");
      ("tenant name=a rate_rps=inf\n", "non-finite rate");
      ("tenant name=a rate_rps=1000 conns=0\n", "zero conns");
      ("tenant name=a rate_rps=1000 burst=0\n", "zero burst");
      ("tenant name=a rate_rps=1000 cpu_mult=0\n", "zero cpu_mult");
      ("tenant name=a rate_rps=1000 link_us=-1\n", "negative link");
      ("tenant name=a rate_rps=1000 bogus=1\n", "unknown key");
      ("tenant name=a rate_rps=1000 batching=off epsilon=0.1\n", "epsilon on static");
      ("tenant name=a rate_rps=1000 epsilon=0.1\n", "epsilon without dynamic");
      ("tenant name=a rate_rps=1000 batching=dynamic epsilon=1\n", "epsilon out of range");
      ("tenant name=a rate_rps=1000 batching=sometimes\n", "unknown batching");
      ("tenant name=a/b rate_rps=1000\n", "slash in name");
      ("tenant name=a rate_rps=1000\ntenant name=a rate_rps=2000\n", "duplicate name");
      ("fleet duration_ms=0\ntenant name=a rate_rps=1000\n", "zero duration");
      ("fleet warmup_ms=-1\ntenant name=a rate_rps=1000\n", "negative warmup");
      ("tenant name=a rate_rps=1000 extra\n", "token without =");
      ("tenant name=a rate_rps=1000 envelope=weird\n", "unknown envelope");
      ("tenant name=a rate_rps=1000 env_high=4\n", "env key without envelope");
      ("tenant name=a rate_rps=1000 envelope=square env_high=4\n", "square missing period");
      ( "tenant name=a rate_rps=1000 envelope=square env_period_ms=50 env_high=4 env_from=1\n",
        "stray env key" );
      ( "tenant name=a rate_rps=1000 envelope=square env_period_ms=50 env_duty=1 env_high=4\n",
        "duty out of range" );
      ( "tenant name=a rate_rps=1000 envelope=steps env_steps=20:2,10:4\n",
        "unsorted steps" );
      ("tenant name=a rate_rps=1000 envelope=steps env_steps=10:0\n", "zero step factor");
      ("tenant name=a rate_rps=1000 envelope=replay\n", "replay missing trace");
      ("tenant name=a rate_rps=1000 churn_min=0\n", "churn_min zero");
      ("tenant name=a rate_rps=1000 churn_min=2 churn_max=1\n", "empty churn band");
      ("tenant name=a rate_rps=1000 conns=2 churn_max=1\n", "conns above churn_max");
      ("tenant name=a rate_rps=1000 churn_arrive_rps=-1\n", "negative churn rate");
      ("tenant name=a rate_rps=1000 churn_script=150:0\n", "zero script delta");
      ("tenant name=a rate_rps=1000 churn_script=150\n", "script pair without colon");
      ("server cores=0\ntenant name=a rate_rps=1000\n", "zero cores");
      ("server lb=fastest\ntenant name=a rate_rps=1000\n", "unknown lb policy");
      ("server bogus=1\ntenant name=a rate_rps=1000\n", "unknown server key");
    ]
  in
  List.iter
    (fun (text, what) ->
      match Spec.of_string text with
      | Ok _ -> Alcotest.failf "%s: expected rejection of %S" what text
      | Error _ -> ())
    cases

let test_server_directive () =
  let s =
    parse_ok
      "fleet seed=5\n\
       server cores=4 lb=least_loaded\n\
       tenant name=a rate_rps=1000\n"
  in
  Alcotest.(check int) "cores" 4 s.Spec.cores;
  Alcotest.(check bool) "lb" true (s.Spec.lb = Shard.Lb.Least_loaded);
  (* defaults when the directive is absent *)
  let d = parse_ok "tenant name=a rate_rps=1000\n" in
  Alcotest.(check int) "default cores" 1 d.Spec.cores;
  Alcotest.(check bool) "default lb" true (d.Spec.lb = Shard.Lb.Consistent_hash)

let contains msg needle =
  let n = String.length needle and m = String.length msg in
  let rec find i = i + n <= m && (String.sub msg i n = needle || find (i + 1)) in
  find 0

(* Unknown-key rejections must name the offending key AND list the
   accepted set, for every directive. *)
let test_unknown_key_lists_accepted () =
  let msg = parse_err "server bogus=1\ntenant name=a rate_rps=1000\n" in
  Alcotest.(check bool) "names the key" true (contains msg "\"bogus\"");
  Alcotest.(check bool) "lists accepted" true (contains msg "accepted:");
  Alcotest.(check bool) "accepted set has cores" true (contains msg "cores");
  Alcotest.(check bool) "accepted set has lb" true (contains msg "lb");
  let msg = parse_err "fleet sede=1\ntenant name=a rate_rps=1000\n" in
  Alcotest.(check bool) "fleet names the key" true (contains msg "\"sede\"");
  Alcotest.(check bool) "fleet lists accepted" true (contains msg "accepted:");
  Alcotest.(check bool) "fleet accepted set has seed" true (contains msg "seed");
  let msg = parse_err "tenant name=a rate_rps=1000 conn=2\n" in
  Alcotest.(check bool) "tenant names the key" true (contains msg "\"conn\"");
  Alcotest.(check bool) "tenant accepted set has conns" true (contains msg "conns");
  (* the directive list itself mentions server *)
  let msg = parse_err "servor cores=4\ntenant name=a rate_rps=1000\n" in
  Alcotest.(check bool) "unknown directive names it" true (contains msg "\"servor\"");
  Alcotest.(check bool) "directive list has server" true (contains msg "server")

let test_comments_and_whitespace () =
  let s =
    parse_ok
      "  # leading comment\n\n\
       \tfleet\tseed=3   # trailing comment\n\
       tenant   name=a\trate_rps=1000\n"
  in
  Alcotest.(check int) "seed" 3 s.Spec.seed;
  Alcotest.(check int) "one tenant" 1 (List.length s.Spec.tenants)

(* {1 Compilation} *)

let test_to_fleet_mapping () =
  let s =
    parse_ok
      "fleet seed=9 warmup_ms=10 duration_ms=40 scope=per_tenant batching=on\n\
       tenant name=vm rate_rps=1000 conns=3 mix=small cpu_mult=4 link_us=2.5 \
       slo_us=250 batching=dynamic epsilon=0.125\n"
  in
  let cfg = Exec.to_fleet s in
  Alcotest.(check int) "seed" 9 cfg.Fleet.seed;
  Alcotest.(check int) "warmup ns" (Sim.Time.ms 10) cfg.Fleet.warmup;
  Alcotest.(check int) "duration ns" (Sim.Time.ms 40) cfg.Fleet.duration;
  Alcotest.(check bool) "scope" true (cfg.Fleet.scope = Fleet.Per_tenant);
  Alcotest.(check bool) "global mode" true
    (cfg.Fleet.batching = Loadgen.Control.Static_on);
  let t = List.hd cfg.Fleet.tenants in
  Alcotest.(check int) "conns" 3 t.Fleet.n_conns;
  Alcotest.(check (float 1e-9)) "cpu mult" 4.0 t.Fleet.cpu_multiplier;
  Alcotest.(check int) "link delay ns" (Sim.Time.ns 2500)
    t.Fleet.link.Tcp.Conn.prop_delay;
  Alcotest.(check (float 1e-9)) "slo" 250.0 t.Fleet.slo_us;
  (match t.Fleet.batching with
  | Loadgen.Control.Dynamic d -> Alcotest.(check (float 1e-9)) "epsilon" 0.125 d.epsilon
  | _ -> Alcotest.fail "expected dynamic");
  Alcotest.(check bool) "workload is small" true
    (t.Fleet.workload = Loadgen.Workload.small_requests)

(* {1 Fleet engine} *)

(* Small two-tenant fleet: cheap enough for unit tests, asymmetric
   enough (rate, conns, cpu price, workload) to exercise the tenant
   plumbing. *)
let quick_spec ~scope ~batching =
  parse_ok
    (Printf.sprintf
       "fleet seed=11 warmup_ms=10 duration_ms=40 scope=%s batching=%s\n\
        tenant name=a conns=2 rate_rps=4000 batching=%s\n\
        tenant name=b rate_rps=2000 mix=small cpu_mult=4 batching=%s\n"
       scope batching batching batching)

let test_fleet_accounting () =
  let r = Exec.run (quick_spec ~scope:"global" ~batching:"off") in
  Alcotest.(check int) "two tenants" 2 (List.length r.Fleet.tenants);
  Alcotest.(check (list string)) "liveness" [] (Loadgen.Invariants.(check base) r);
  List.iter
    (fun (t : Fleet.tenant_result) ->
      Alcotest.(check bool) (t.t_name ^ " completes") true (t.t_completed > 20);
      Alcotest.(check bool)
        (t.t_name ^ " achieves offered")
        true
        (t.t_achieved_rps > 0.8 *. t.t_offered_rps))
    r.Fleet.tenants;
  let a = List.hd r.Fleet.tenants and b = List.nth r.Fleet.tenants 1 in
  Alcotest.(check bool) "tenant order preserved" true
    (a.Fleet.t_name = "a" && b.Fleet.t_name = "b");
  (* the fleet totals are the union of the tenants' requests *)
  Alcotest.(check int) "fleet = sum of tenants"
    (a.Fleet.t_completed + b.Fleet.t_completed)
    (int_of_float (r.Fleet.fleet_achieved_rps *. 0.04 +. 0.5));
  (match r.Fleet.goodput_max_min_ratio with
  | Some ratio -> Alcotest.(check bool) "near-fair" true (ratio < 1.2)
  | None -> Alcotest.fail "expected fairness ratio");
  Alcotest.(check bool) "server busy" true (r.Fleet.server_app_util > 0.0)

let test_fleet_deterministic_repeats () =
  let spec = quick_spec ~scope:"per_conn" ~batching:"dynamic" in
  let r1 = Exec.run spec and r2 = Exec.run spec in
  Alcotest.(check bool) "bit-identical results" true (r1 = r2)

let test_fleet_deterministic_across_domains () =
  (* The three compare_static configs are independent simulations; the
     verdict must not depend on how many domains computed them. *)
  let spec = quick_spec ~scope:"per_tenant" ~batching:"dynamic" in
  let seq = Exec.compare_static ~tol:0.1 spec in
  let par =
    Exec.compare_static ~tol:0.1
      ~map:(fun f l -> Par.Pool.map ~domains:2 f l)
      spec
  in
  Alcotest.(check bool) "domains=2 matches sequential" true (seq = par)

let count_groups scope =
  let r = Exec.run (quick_spec ~scope ~batching:"dynamic") in
  List.length (Fleet.final_modes r)

let test_scope_group_granularity () =
  Alcotest.(check int) "global: one group" 1 (count_groups "global");
  Alcotest.(check int) "per_tenant: one per tenant" 2 (count_groups "per_tenant");
  Alcotest.(check int) "per_conn: one per connection" 3 (count_groups "per_conn");
  (* static fleets have no dynamic groups to report *)
  let r = Exec.run (quick_spec ~scope:"global" ~batching:"off") in
  Alcotest.(check int) "static: none" 0 (List.length (Fleet.final_modes r))

let test_fleet_tenant_tagging () =
  let spec = quick_spec ~scope:"per_conn" ~batching:"dynamic" in
  let cfg = { (Exec.to_fleet spec) with Fleet.observe = Some Loadgen.Observe.default_config } in
  let r = Fleet.run cfg in
  let o = match r.Fleet.observability with Some o -> o | None -> Alcotest.fail "no obs" in
  let tenants_seen =
    List.filter_map
      (fun (rec_ : Sim.Trace.record) -> Sim.Trace.tenant_of_id rec_.Sim.Trace.id)
      o.Loadgen.Observe.records
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "both tenants on the trace" [ "a"; "b" ] tenants_seen;
  (* request events carry the tenant tag too *)
  let req_ids =
    List.filter_map
      (fun (rec_ : Sim.Trace.record) ->
        match rec_.Sim.Trace.event with
        | Sim.Trace.Request_done _ -> Sim.Trace.tenant_of_id rec_.Sim.Trace.id
        | _ -> None)
      o.Loadgen.Observe.records
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "request events tagged" [ "a"; "b" ] req_ids;
  (* group ids under per_conn are the tenant-tagged connection labels *)
  List.iter
    (fun (gid, _) ->
      match Sim.Trace.tenant_of_id gid with
      | Some _ -> ()
      | None -> Alcotest.failf "group id %S not tenant-tagged" gid)
    (Fleet.final_modes r)

let test_fleet_observe_invariance () =
  (* Attaching observability must not change simulation results. *)
  let spec = quick_spec ~scope:"per_conn" ~batching:"dynamic" in
  let plain = Fleet.run (Exec.to_fleet spec) in
  let observed =
    Fleet.run
      { (Exec.to_fleet spec) with Fleet.observe = Some Loadgen.Observe.default_config }
  in
  Alcotest.(check bool) "tenant results identical" true
    (plain.Fleet.tenants = observed.Fleet.tenants);
  Alcotest.(check bool) "final modes identical" true
    (Fleet.final_modes plain = Fleet.final_modes observed)

let test_fleet_validation () =
  let expect msg tenants =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Fleet.run (Fleet.default_config ~tenants)))
  in
  expect "Fleet.run: at least one tenant required" [];
  let t = Fleet.default_tenant ~name:"a" ~rate_rps:1000.0 in
  expect "Fleet.run: tenant names must be unique" [ t; t ];
  expect "Fleet.run: only a sole tenant may have an empty name"
    [ t; { t with Fleet.name = "" } ];
  expect "Fleet.run: tenant name \"a/b\" may not contain '/' or whitespace"
    [ { t with Fleet.name = "a/b" } ];
  expect "Fleet.run: tenant a: rate_rps must be positive and finite"
    [ { t with Fleet.rate_rps = 0.0 } ];
  expect "Fleet.run: tenant a: n_conns must be at least 1"
    [ { t with Fleet.n_conns = 0 } ];
  expect "Fleet.run: tenant a: burst must be at least 1" [ { t with Fleet.burst = 0 } ];
  expect "Fleet.run: tenant a: cpu_multiplier must be positive"
    [ { t with Fleet.cpu_multiplier = -1.0 } ];
  expect "Fleet.run: tenant a: slo_us must be positive" [ { t with Fleet.slo_us = 0.0 } ]

let suite =
  [
    ( "scenario.spec",
      [
        Alcotest.test_case "parses the example" `Quick test_parse_example;
        Alcotest.test_case "round-trips the example" `Quick test_roundtrip_example;
        Alcotest.test_case "line-numbered errors" `Quick test_errors_carry_line_numbers;
        Alcotest.test_case "duplicate tenant is line-numbered" `Quick
          test_duplicate_tenant_line_numbered;
        Alcotest.test_case "rejects malformed input" `Quick test_rejects_malformed;
        Alcotest.test_case "server directive" `Quick test_server_directive;
        Alcotest.test_case "unknown keys list the accepted set" `Quick
          test_unknown_key_lists_accepted;
        Alcotest.test_case "comments and whitespace" `Quick test_comments_and_whitespace;
        QCheck_alcotest.to_alcotest prop_roundtrip;
      ] );
    ( "scenario.exec",
      [ Alcotest.test_case "spec-to-fleet mapping" `Quick test_to_fleet_mapping ] );
    ( "scenario.fleet",
      [
        Alcotest.test_case "per-tenant accounting" `Slow test_fleet_accounting;
        Alcotest.test_case "deterministic repeats" `Slow test_fleet_deterministic_repeats;
        Alcotest.test_case "deterministic across domains" `Slow
          test_fleet_deterministic_across_domains;
        Alcotest.test_case "scope sets group granularity" `Slow
          test_scope_group_granularity;
        Alcotest.test_case "tenant-tagged observability" `Slow test_fleet_tenant_tagging;
        Alcotest.test_case "observe invariance" `Slow test_fleet_observe_invariance;
        Alcotest.test_case "validation" `Quick test_fleet_validation;
      ] );
  ]
