(* The invariant oracle: real cells' results pass, and each record edit
   that breaks one invariant makes the check fail with that
   invariant's line. *)

module Fleet = Loadgen.Fleet
module Observe = Loadgen.Observe
module Chaos = Loadgen.Chaos
module Invariants = Loadgen.Invariants

(* A zero-window blackout cell without random loss owes the stall
   bound, a freeze and a thaw. *)
let wire_cell () =
  let base =
    {
      (Loadgen.Runner.default_config ~rate_rps:10e3
         ~batching:(Loadgen.Runner.Dynamic Loadgen.Runner.default_dynamic))
      with
      warmup = Sim.Time.ms 20;
    }
  in
  match
    Chaos.grid ~zero_windows:[ true ] ~base ~losses:[ 0.0 ] ~reorders:[ 0.0 ]
      ~blackouts_ms:[ 20.0 ] ()
  with
  | [ cell ] -> cell
  | _ -> Alcotest.fail "expected one cell"

(* Each cell runs once and is shared by every test below. *)
let wire = lazy (Chaos.run_cell (wire_cell ()))
let storm = lazy (Chaos.run_cell (Chaos.load_cell Chaos.Churn_storm))

let check_breaks name (v : Chaos.verdict) prefix edit =
  Alcotest.(check bool)
    (Printf.sprintf "%s fails with %S" name prefix)
    true
    (List.exists (String.starts_with ~prefix) (Invariants.check v.cell.owed (edit v.result)))

let map_tenants f (r : Fleet.result) = { r with tenants = List.map f r.tenants }
let map_groups f (r : Fleet.result) = { r with groups = List.map f r.groups }

let map_observe f (r : Fleet.result) =
  match r.observability with
  | Some o -> { r with observability = Some (f o) }
  | None -> Alcotest.fail "cell not observed"

let test_real_cells_pass () =
  List.iter
    (fun (v : Chaos.verdict) ->
      Alcotest.(check (list string)) (v.cell.label ^ " passes") [] v.failures)
    [ Lazy.force wire; Lazy.force storm ]

let test_closure () =
  let v = Lazy.force wire in
  check_breaks "tenant closure" v "accounting: tenant"
    (map_tenants (fun t -> { t with t_issued = t.t_issued + 1 }));
  check_breaks "shard closure" v "accounting: shard 0"
    (fun r ->
      {
        r with
        shards =
          List.map
            (fun (s : Fleet.shard_result) ->
              { s with sh_outstanding_end = s.sh_outstanding_end + 1 })
            r.shards;
      })

let test_liveness_and_stall () =
  check_breaks "no completion in the window" (Lazy.force storm) "liveness: tenant churny"
    (map_tenants (fun t -> { t with t_completed = 0 }));
  (* Three quarters stranded, with closure kept. *)
  check_breaks "stalled zero-window cell" (Lazy.force wire) "stall:"
    (map_tenants (fun t ->
         let stranded = 3 * t.t_issued / 4 in
         { t with t_outstanding_end = stranded; t_completed_total = t.t_issued - stranded }))

let test_audit () =
  check_breaks "audit at rel_err 0.2" (Lazy.force storm) "audit:"
    (map_observe (fun o ->
         match o.audits with
         | a :: rest -> { o with audits = { a with rel_err = 0.2 } :: rest }
         | [] -> Alcotest.fail "no audit reports"))

let test_degrade () =
  let v = Lazy.force wire in
  check_breaks "blackout with no freeze" v "degrade: blackout never froze"
    (map_groups (fun g -> { g with g_degrade_freezes = Some 0 }));
  check_breaks "transient blackout still frozen" v "degrade: still frozen"
    (map_groups (fun g -> { g with g_degrade_frozen_end = Some true }))

let map_settling f = map_observe (fun o -> { o with settling = List.map f o.settling })

let test_churn_and_settling () =
  let v = Lazy.force storm in
  check_breaks "storm with no closes" v "churn: no connection ever drained"
    (map_tenants (fun t -> { t with t_conns_closed = 0 }));
  (* Without a judged segment there is no evidence of re-convergence. *)
  check_breaks "no judged settle segment" v "settling: no re-convergence evidence"
    (map_settling (fun g -> { g with Observe.g_steady_us = None }));
  check_breaks "no observability" v "settling: no observability"
    (fun r -> { r with observability = None });
  check_breaks "estimate settle over its bound" v "settling: churny/client edge"
    (map_settling (fun g -> { g with Observe.g_settle_us = Some 25_001.0 }));
  check_breaks "mode settle over its bound" v "settling: churny/client edge"
    (map_settling (fun g -> { g with Observe.g_mode_settle_us = Some 25_001.0 }))

let suite =
  [
    ( "loadgen.invariants",
      [
        Alcotest.test_case "real cells pass" `Quick test_real_cells_pass;
        Alcotest.test_case "closure per tenant and shard" `Quick test_closure;
        Alcotest.test_case "liveness and stall" `Quick test_liveness_and_stall;
        Alcotest.test_case "audit bound" `Quick test_audit;
        Alcotest.test_case "blackout freeze and thaw" `Quick test_degrade;
        Alcotest.test_case "churn and settling" `Quick test_churn_and_settling;
      ] );
  ]
