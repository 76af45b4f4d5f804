type owed = {
  measured_progress : bool;
  stall_free : bool;
  froze : bool;
  thawed : bool;
  churned : bool;
  settle_us : float option;
  mode_settle_us : float option;
}

let base =
  {
    measured_progress = false;
    stall_free = false;
    froze = false;
    thawed = false;
    churned = false;
    settle_us = None;
    mode_settle_us = None;
  }

let audit_bound = 0.15

let check owed (r : Fleet.result) =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun (t : Fleet.tenant_result) ->
      let name = if t.t_name = "" then "run" else t.t_name in
      if t.t_issued <> t.t_completed_total + t.t_outstanding_end then
        fail "accounting: tenant %s issued=%d <> completed=%d + outstanding=%d" name
          t.t_issued t.t_completed_total t.t_outstanding_end;
      if t.t_completed_total = 0 then fail "liveness: tenant %s never completed a request" name
      else if owed.measured_progress && t.t_completed = 0 then
        fail "liveness: tenant %s completed nothing in the measured window" name;
      if owed.stall_free && t.t_issued > 0 && 2 * t.t_outstanding_end > t.t_issued then
        fail "stall: %d of %d issued requests still outstanding at run end"
          t.t_outstanding_end t.t_issued)
    r.tenants;
  List.iter
    (fun (s : Fleet.shard_result) ->
      if s.sh_issued <> s.sh_completed_total + s.sh_outstanding_end then
        fail "accounting: shard %d issued=%d <> completed=%d + outstanding=%d" s.sh_index
          s.sh_issued s.sh_completed_total s.sh_outstanding_end)
    r.shards;
  (* The audit mirrors locally observed queue transitions, so loss or
     reordering is no excuse for the books not balancing. *)
  Option.iter
    (fun (o : Observe.output) ->
      List.iter
        (fun (a : Sim.Audit.report) ->
          if Float.is_finite a.rel_err && a.rel_err > audit_bound then
            fail "audit: %s rel_err %.3f > %.2f" a.queue a.rel_err audit_bound)
        o.audits)
    r.observability;
  List.iter
    (fun (g : Fleet.group_result) ->
      if owed.froze && g.g_degrade_freezes = Some 0 then
        fail "degrade: blackout never froze the toggler";
      if owed.thawed && g.g_degrade_frozen_end = Some true then
        fail "degrade: still frozen at run end (no recovery)")
    r.groups;
  if owed.churned then begin
    let sum f = List.fold_left (fun acc t -> acc + f t) 0 r.tenants in
    if sum (fun t -> t.Fleet.t_conns_opened) = 0 then fail "churn: no connection ever spawned";
    if sum (fun t -> t.Fleet.t_conns_closed) = 0 then
      fail "churn: no connection ever drained and closed"
  end;
  (match (owed.settle_us, owed.mode_settle_us, r.observability) with
  | None, None, _ -> ()
  | _, _, None -> fail "settling: no observability attached"
  | _, _, Some o ->
    let judged =
      List.filter (fun (g : Observe.settle_report) -> g.g_steady_us <> None) o.settling
    in
    let within series what bound (g : Observe.settle_report) =
      match (bound, series) with
      | None, _ -> ()
      | Some _, None ->
        fail "settling: %s edge %.0fus %s never re-converged" g.g_id g.g_edge_us what
      | Some b, Some s when s > b ->
        fail "settling: %s edge %.0fus %s took %.0fus > %.0fus bound" g.g_id g.g_edge_us
          what s b
      | Some _, Some _ -> ()
    in
    if judged = [] then fail "settling: no re-convergence evidence (no judged segment)"
    else
      List.iter
        (fun (g : Observe.settle_report) ->
          within g.g_settle_us "estimate" owed.settle_us g;
          within g.g_mode_settle_us "modes" owed.mode_settle_us g)
        judged);
  List.rev !failures
