(* Identity gate for the single-run path: every scalar of
   [Runner.result] over a fixed config matrix (four batching modes x
   one connection, three connections, Bernoulli loss, a fault plan and
   a command replay) must match the digests committed in
   [regress/runner_digests.txt].  Floats are printed as [%h], so any
   change to simulated behaviour shows up as a mismatched line. *)

module R = Loadgen.Runner

let fault_plan () =
  match Sim.Directive.file Fault.Plan.of_string "regress/identity.fault" with
  | Ok p -> p
  | Error e -> Alcotest.failf "regress/identity.fault: %s" e

let base batching =
  {
    (R.default_config ~rate_rps:40e3 ~batching) with
    R.seed = 7;
    warmup = Sim.Time.ms 5;
    duration = Sim.Time.ms 40;
  }

let variants () =
  [
    ("one", fun c -> c);
    ("conns3", fun c -> { c with R.n_conns = 3 });
    ("loss", fun c -> { c with R.loss_prob = 1e-3; cc = true });
    ("fault", fun c -> { c with R.fault = Some (fault_plan ()); cc = true });
    ( "replay",
      fun c ->
        let entries =
          Loadgen.Trace.synthesize ~workload:c.R.workload ~rate_rps:c.R.rate_rps
            ~duration:(c.R.warmup + c.R.duration) ~rng:(Sim.Rng.create ~seed:11)
        in
        { c with R.trace = Some entries } );
  ]

let batchings =
  [
    ("on", R.Static_on);
    ("off", R.Static_off);
    ("dynamic", R.Dynamic R.default_dynamic);
    ("aimd", R.Aimd_limit R.default_aimd);
  ]

let digest (r : R.result) =
  let b = Buffer.create 512 in
  let f x = Printf.bprintf b " %h" x in
  let i x = Printf.bprintf b " %d" x in
  let opt pp = function None -> Buffer.add_string b " -" | Some x -> pp x in
  f r.offered_rps;
  f r.achieved_rps;
  i r.completed;
  i r.issued;
  i r.completed_total;
  i r.outstanding_end;
  i r.link_dropped;
  i r.shares_corrupted;
  i r.shares_rejected;
  opt i r.degrade_freezes;
  opt i r.degrade_thaws;
  opt (fun x -> Printf.bprintf b " %b" x) r.degrade_frozen_end;
  f r.measured_mean_us;
  f r.measured_p50_us;
  f r.measured_p99_us;
  f r.under_slo;
  opt f r.estimated_us;
  opt f r.estimated_local_us;
  opt f r.estimated_remote_us;
  opt f r.hint_estimated_us;
  opt f r.hint_server_estimated_us;
  f r.client_app_util;
  f r.server_app_util;
  f r.client_irq_util;
  f r.server_irq_util;
  i r.packets;
  f r.packets_per_request;
  f r.server_batch_mean;
  i r.server_wakeups;
  i r.nagle_toggles;
  opt (fun m -> Printf.bprintf b " %s" (E2e.Toggler.mode_to_string m)) r.final_mode;
  opt i r.final_batch_limit;
  f r.server_gro_merge;
  opt f r.client_srtt_us;
  opt f r.client_p99_est_us;
  i (List.length r.samples);
  Buffer.contents b

let lines () =
  List.concat_map
    (fun (bname, batching) ->
      List.map
        (fun (vname, v) ->
          Printf.sprintf "%s/%s%s" bname vname (digest (R.run (v (base batching)))))
        (variants ()))
    batchings

let expected () =
  In_channel.with_open_text "regress/runner_digests.txt" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let test_runner_digests () =
  let want = expected () in
  let got = lines () in
  Alcotest.(check int) "config count" (List.length want) (List.length got);
  List.iter2 (fun w g -> Alcotest.(check string) "runner digest" w g) want got

let suite =
  [ ("identity", [ Alcotest.test_case "runner digests" `Quick test_runner_digests ]) ]
