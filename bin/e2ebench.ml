(* Command-line front end for single benchmark runs and sweeps.

   Examples:
     e2ebench run --rate 60 --nagle off
     e2ebench run --rate 90 --nagle dynamic --policy slo:500
     e2ebench run --rate 40 --unit hinted --set-ratio 0.95
     e2ebench sweep --rates 10,40,70,100,130
     e2ebench model --alpha 2 --beta 4 --client-cost 3 *)

open Cmdliner

let pf = Printf.printf

(* {1 Shared options} *)

let rate_arg =
  let doc = "Offered load in kRPS." in
  Arg.(value & opt float 50.0 & info [ "rate" ] ~docv:"KRPS" ~doc)

let seed_arg =
  let doc = "Simulation seed (runs are deterministic per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let duration_arg =
  let doc = "Measured duration in milliseconds (after warmup)." in
  Arg.(value & opt int 300 & info [ "duration-ms" ] ~doc)

let warmup_arg =
  let doc = "Warmup in milliseconds (excluded from statistics)." in
  Arg.(value & opt int 50 & info [ "warmup-ms" ] ~doc)

let nagle_arg =
  let doc = "Batching mode: on, off, dynamic, or aimd." in
  Arg.(value & opt string "off" & info [ "nagle" ] ~docv:"MODE" ~doc)

let policy_arg =
  let doc = "Objective for dynamic mode: latency, throughput, slo, or slo:<us>." in
  Arg.(value & opt string "slo" & info [ "policy" ] ~doc)

let epsilon_arg =
  let doc = "Exploration rate for dynamic mode." in
  Arg.(value & opt float 0.05 & info [ "epsilon" ] ~doc)

let unit_arg =
  let doc = "Estimator message unit: bytes, packets, syscalls, or hinted." in
  Arg.(value & opt string "bytes" & info [ "unit" ] ~doc)

let value_size_arg =
  let doc = "Value size in bytes (paper: 16384)." in
  Arg.(value & opt int 16384 & info [ "value-size" ] ~doc)

let set_ratio_arg =
  let doc = "Fraction of SETs (paper: 1.0 for Fig 4a, 0.95 for Fig 4b)." in
  Arg.(value & opt float 1.0 & info [ "set-ratio" ] ~doc)

let vm_mult_arg =
  let doc = "Client CPU cost multiplier (models the Figure-2 VM client)." in
  Arg.(value & opt float 1.0 & info [ "vm-mult" ] ~doc)

let exchange_arg =
  let doc = "Metadata exchange: every, <microseconds>, or demand." in
  Arg.(value & opt string "100" & info [ "exchange" ] ~doc)

let conns_arg =
  let doc = "Concurrent connections (estimates aggregated across them)." in
  Arg.(value & opt int 1 & info [ "conns" ] ~doc)

let tso_arg =
  let doc = "Enable 64 KiB TCP segmentation offload." in
  Arg.(value & flag & info [ "tso" ] ~doc)

let loss_arg =
  let doc = "Per-packet drop probability (enables congestion control)." in
  Arg.(value & opt float 0.0 & info [ "loss" ] ~doc)

let domains_arg =
  let doc =
    "Worker domains for sweeps (1 = sequential; results are identical \
     for any value, only wall-clock time changes).  Defaults to the \
     machine's core count minus one."
  in
  Arg.(value & opt int (Par.Pool.default_domains ()) & info [ "domains" ] ~docv:"N" ~doc)

let fault_plan_arg =
  let doc =
    "Fault-injection plan file (loss/reorder/dup/corrupt/blackout/rate/delay \
     directives, one per line; see DESIGN.md)."
  in
  Arg.(value & opt (some string) None & info [ "fault-plan" ] ~docv:"FILE" ~doc)

(* A runtime error (an input that cannot be read or holds no answer, a
   failed run or gate, an output that cannot be written) as a one-line
   message.  Raised by [fail] and [create_out] and caught once, at the
   bottom of this file: e2ebench prints the message and exits 1, after
   every [Fun.protect] on the way has cleaned up. *)
exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

(* A command-line error (a bad flag value, or flags that conflict):
   cmdliner prints it and exits 124. *)
let usage fmt = Printf.ksprintf (fun s -> `Error (false, s)) fmt

let load_fault_plan = function
  | None -> Ok None
  | Some path -> (
    match Sim.Directive.file Fault.Plan.of_string path with
    | Ok plan when Fault.Plan.is_empty plan ->
      Error (Printf.sprintf "fault plan %s has no directives" path)
    | Ok plan -> Ok (Some plan)
    | Error e -> Error e)

let parse_batching nagle policy epsilon =
  match nagle with
  | "on" -> Ok Loadgen.Runner.Static_on
  | "off" -> Ok Loadgen.Runner.Static_off
  | "aimd" -> Ok (Loadgen.Runner.Aimd_limit Loadgen.Runner.default_aimd)
  | "dynamic" ->
    Result.map
      (fun policy ->
        Loadgen.Runner.Dynamic { Loadgen.Runner.default_dynamic with policy; epsilon })
      (E2e.Policy.of_string policy)
  | other -> Error (Printf.sprintf "unknown batching mode %S" other)

let parse_exchange = function
  | "every" -> Ok E2e.Exchange.Every_segment
  | "demand" -> Ok E2e.Exchange.On_demand
  | us -> (
    match Sim.Directive.integer ~unit:(Sim.Time.us 1) us with
    | Ok us when us > 0 -> Ok (E2e.Exchange.Periodic (Sim.Time.us us))
    | Ok _ | Error _ -> Error (Printf.sprintf "bad exchange spec %S" us))

let build_config ?(conns = 1) ?(tso = false) ?(loss = 0.0) ~rate ~seed ~duration
    ~warmup ~nagle ~policy ~epsilon ~unit_mode ~value_size ~set_ratio ~vm_mult
    ~exchange () =
  let ( let* ) = Result.bind in
  let* batching = parse_batching nagle policy epsilon in
  let* unit_mode = E2e.Units.of_string unit_mode in
  let* exchange = parse_exchange exchange in
  let* workload =
    Loadgen.Workload.validate
      { Loadgen.Workload.paper_set_only with value_size; set_ratio }
  in
  let base = Loadgen.Runner.default_config ~rate_rps:(rate *. 1e3) ~batching in
  if loss < 0.0 || loss >= 1.0 then Error "loss must be in [0,1)"
  else if conns < 1 then Error "conns must be at least 1"
  else
    Ok
      {
        base with
        seed;
        duration = Sim.Time.ms duration;
        warmup = Sim.Time.ms warmup;
        unit_mode;
        exchange;
        workload;
        n_conns = conns;
        tso;
        loss_prob = loss;
        cc = loss > 0.0;
        client = { base.client with cpu_multiplier = vm_mult };
      }

let print_result (r : Loadgen.Runner.result) =
  let opt = function None -> "-" | Some v -> Printf.sprintf "%.1f" v in
  pf "offered load        : %.1f kRPS\n" (r.offered_rps /. 1e3);
  pf "achieved throughput : %.1f kRPS (%d requests)\n" (r.achieved_rps /. 1e3) r.completed;
  pf "measured latency    : mean %.1f us, p50 %.1f us, p99 %.1f us\n" r.measured_mean_us
    r.measured_p50_us r.measured_p99_us;
  pf "under 500us SLO     : %.1f%% of requests\n" (100.0 *. r.under_slo);
  pf "estimated latency   : %s us (local %s / remote %s)\n" (opt r.estimated_us)
    (opt r.estimated_local_us) (opt r.estimated_remote_us);
  pf "hint-based estimate : %s us (server view %s us)\n" (opt r.hint_estimated_us)
    (opt r.hint_server_estimated_us);
  pf "CPU utilization     : client app %.0f%%, irq %.0f%% | server app %.0f%%, irq %.0f%%\n"
    (100.0 *. r.client_app_util) (100.0 *. r.client_irq_util)
    (100.0 *. r.server_app_util) (100.0 *. r.server_irq_util);
  pf "packets             : %d (%.1f per request), server GRO merge %.1f\n" r.packets
    r.packets_per_request r.server_gro_merge;
  pf "server batching     : %.1f requests per wakeup (%d wakeups)\n" r.server_batch_mean
    r.server_wakeups;
  (match r.final_mode with
  | Some m ->
    pf "dynamic controller  : final mode %s, %d toggles\n" (E2e.Toggler.mode_to_string m)
      r.nagle_toggles
  | None -> ());
  match r.final_batch_limit with
  | Some l -> pf "AIMD batch limit    : %d bytes\n" l
  | None -> ()

(* Printed only when a fault plan is active: what the injector actually
   did, and whether the degradation state machine tripped. *)
let print_fault (r : Loadgen.Runner.result) =
  pf "fault injection     : %d segments dropped, %d shares corrupted, %d shares rejected\n"
    r.link_dropped r.shares_corrupted r.shares_rejected;
  pf "accounting          : issued %d = completed %d + outstanding %d%s\n" r.issued
    r.completed_total r.outstanding_end
    (if r.issued = r.completed_total + r.outstanding_end then "" else "  (VIOLATED)");
  match (r.degrade_freezes, r.degrade_thaws, r.degrade_frozen_end) with
  | Some fr, Some th, Some frozen ->
    pf "degradation         : %d freezes, %d thaws, %s at end\n" fr th
      (if frozen then "FROZEN" else "active")
  | _ -> ()

(* {1 Observability output} *)

let trace_out_arg =
  let doc =
    "Write the structured event trace to $(docv): JSONL by default, or the \
     compact binary format when $(docv) ends in .bin (see $(b,convert))."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc = "Write the sampled metrics time series as JSONL to $(docv)." in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let sample_us_arg =
  let doc = "Observability sampling cadence in microseconds." in
  Arg.(value & opt int 1000 & info [ "sample-us" ] ~docv:"US" ~doc)

let observe_of_flags ~trace_out ~metrics_out ~sample_us =
  if trace_out = None && metrics_out = None then Ok None
  else if sample_us <= 0 then Error "--sample-us must be positive"
  else
    Ok
      (Some
         {
           Loadgen.Observe.default_config with
           sample_interval = Sim.Time.us sample_us;
         })

(* [create ()] makes [path] or a spool file beside it; a failure is a
   [Failed] that names [path]. *)
let create_out path create =
  try create ()
  with Sys_error e ->
    (* [e] is "<file>: <reason>", and the file may be the spool *)
    let reason =
      match String.rindex_opt e ':' with
      | Some i -> String.trim (String.sub e (i + 1) (String.length e - i - 1))
      | None -> e
    in
    fail "cannot write %s: %s" path reason

let with_out path f =
  let oc = create_out path (fun () -> open_out_bin path) in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* Create an optional output file before the runs that fill it, so a
   path that cannot be written fails before any work; the writer closes
   the channel. *)
let open_out_opt =
  Option.map (fun path -> (path, create_out path (fun () -> open_out_bin path)))

let binary_trace_path path = Filename.check_suffix path ".bin"

(* A record writer on [oc] in [path]'s format (binary or JSONL, by its
   suffix), and the function that completes the file. *)
let trace_writer path oc =
  if binary_trace_path path then
    let w = Sim.Trace.Binary.writer oc in
    ((fun ?run r -> Sim.Trace.Binary.write w ?run r), fun () -> Sim.Trace.Binary.finish w)
  else
    ( (fun ?run r ->
        output_string oc (Sim.Trace.record_to_json ?run r);
        output_char oc '\n'),
      ignore )

(* Append the file [src] to [oc]. *)
let copy_file src oc =
  In_channel.with_open_bin src (fun ic ->
      let buf = Bytes.create 65536 in
      let rec go () =
        let n = In_channel.input ic buf 0 (Bytes.length buf) in
        if n > 0 then begin
          Out_channel.output oc buf 0 n;
          go ()
        end
      in
      go ())

(* Run every job [(label, job)] as [job observe] on [domains] domains;
   returns the results in job order and the number of trace records
   written to [trace_out] (0 without one).  With [trace_out], each run
   streams its labelled records through [Observe.config.trace_sink]
   into a spool file of its own, in [trace_out]'s format, while it runs
   (runs on parallel domains cannot share a writer), so the file gets
   every record the run emitted, not just what the ring would keep.
   After the runs the spools are joined in job order into [trace_out]:
   JSONL spools byte for byte, binary ones record by record (each has
   its own string tables).  The spools are removed, also on error. *)
let traced_runs ~domains ~trace_out ~(observe : Loadgen.Observe.config option) jobs =
  match (trace_out, observe) with
  | None, _ | _, None -> (Par.Pool.map ~domains (fun (_, job) -> job observe) jobs, 0)
  | Some path, Some o ->
    let made = ref [] in
    Fun.protect
      ~finally:(fun () -> List.iter (fun f -> if Sys.file_exists f then Sys.remove f) !made)
      (fun () ->
        let spools =
          List.map
            (fun _ ->
              let spool =
                create_out path (fun () ->
                    Filename.temp_file ~temp_dir:(Filename.dirname path)
                      (Filename.basename path) ".spool")
              in
              made := spool :: !made;
              spool)
            jobs
        in
        let runs =
          Par.Pool.map ~domains
            (fun ((run, job), spool) ->
              with_out spool (fun oc ->
                  let write, finish = trace_writer path oc in
                  let n = ref 0 in
                  let sink r =
                    incr n;
                    write ?run r
                  in
                  let r = job (Some { o with trace_sink = Some sink }) in
                  finish ();
                  (r, !n)))
            (List.combine jobs spools)
        in
        with_out path (fun oc ->
            if binary_trace_path path then begin
              let write, finish = trace_writer path oc in
              List.iter
                (fun spool ->
                  match
                    Sim.Trace.Binary.fold_file spool ~init:() ~f:(fun () run r -> write ?run r)
                  with
                  | Ok () -> ()
                  | Error msg -> fail "%s" msg)
                spools;
              finish ()
            end
            else List.iter (fun spool -> copy_file spool oc) spools);
        (List.map fst runs, List.fold_left (fun acc (_, n) -> acc + n) 0 runs))

(* One unlabelled run of [traced_runs]. *)
let traced_run ~trace_out ~observe job =
  match traced_runs ~domains:1 ~trace_out ~observe [ (None, job) ] with
  | [ r ], events -> (r, events)
  | _ -> assert false

(* Report the trace file [traced_runs] wrote, and write the sampled
   metrics of [outputs] (run label, observability output) to [metrics],
   the --metrics-out file from [open_out_opt], and close it. *)
let write_outputs ~trace_out ~events ~metrics
    (outputs : (string option * Loadgen.Observe.output) list) =
  Option.iter (pf "trace               : %d events -> %s\n" events) trace_out;
  Option.iter
    (fun (path, oc) ->
      let total = ref 0 in
      List.iter
        (fun (run, (o : Loadgen.Observe.output)) ->
          List.iter
            (fun s ->
              incr total;
              output_string oc (Sim.Metrics.sample_to_json ?run s);
              output_char oc '\n')
            o.samples)
        outputs;
      close_out oc;
      pf "metrics             : %d samples -> %s\n" !total path)
    metrics

let write_observability ~trace_out ~events ~metrics tagged =
  write_outputs ~trace_out ~events ~metrics
    (List.filter_map
       (fun (run, (r : Loadgen.Runner.result)) ->
         Option.map (fun o -> (run, o)) r.observability)
       tagged)

let print_residual (r : Loadgen.Runner.result) =
  match r.observability with
  | Some { residual = Some s; _ } ->
    pf "estimator residual  : %s\n" (Format.asprintf "%a" E2e.Residual.pp_summary s)
  | Some { residual = None; _ } ->
    pf "estimator residual  : no estimate/ground-truth pairs\n"
  | None -> ()

let print_audit (r : Loadgen.Runner.result) =
  match r.observability with
  | Some { audits = _ :: _ as audits; _ } ->
    pf "little's-law audit  : worst |L-lW| rel err %.2f%% over %d queues\n"
      (100.0
      *. List.fold_left (fun m (a : Sim.Audit.report) -> Float.max m a.rel_err)
           0.0 audits)
      (List.length audits);
    List.iter
      (fun (a : Sim.Audit.report) ->
        pf "  %s\n" (Format.asprintf "%a" Sim.Audit.pp_report a))
      audits
  | Some { audits = []; _ } | None -> ()

(* {1 run} *)

let run_cmd =
  let action rate seed duration warmup nagle policy epsilon unit_mode value_size
      set_ratio vm_mult exchange conns tso loss fault_plan trace_out metrics_out
      sample_us =
    match
      ( build_config ~conns ~tso ~loss ~rate ~seed ~duration ~warmup ~nagle ~policy
          ~epsilon ~unit_mode ~value_size ~set_ratio ~vm_mult ~exchange (),
        observe_of_flags ~trace_out ~metrics_out ~sample_us,
        load_fault_plan fault_plan )
    with
    | Error e, _, _ | _, Error e, _ -> usage "%s" e
    | _, _, Error e -> fail "%s" e
    | Ok cfg, Ok observe, Ok fault ->
      let metrics = open_out_opt metrics_out in
      (* Retransmission needs congestion control once segments can drop. *)
      let cc = cfg.cc || fault <> None in
      let r, events =
        traced_run ~trace_out ~observe (fun observe ->
            Loadgen.Runner.run { cfg with observe; fault; cc })
      in
      print_result r;
      if fault <> None then print_fault r;
      print_residual r;
      print_audit r;
      write_observability ~trace_out ~events ~metrics [ (None, r) ];
      `Ok ()
  in
  let term =
    Term.(
      ret
        (const action $ rate_arg $ seed_arg $ duration_arg $ warmup_arg $ nagle_arg
       $ policy_arg $ epsilon_arg $ unit_arg $ value_size_arg $ set_ratio_arg
       $ vm_mult_arg $ exchange_arg $ conns_arg $ tso_arg $ loss_arg
       $ fault_plan_arg $ trace_out_arg $ metrics_out_arg $ sample_us_arg))
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one benchmark point and print all metrics") term

(* {1 sweep} *)

let rates_arg =
  let doc = "Comma-separated offered loads in kRPS." in
  Arg.(value & opt string "10,40,70,100,130" & info [ "rates" ] ~doc)

let sweep_cmd =
  let action rates seed duration warmup unit_mode value_size set_ratio vm_mult domains
      fault_plan trace_out metrics_out sample_us =
    match Sim.Directive.list Sim.Directive.number rates with
    | Error e -> usage "--rates: %s" e
    | Ok _ when domains < 1 -> usage "--domains must be at least 1"
    | Ok parsed -> begin
      match
        ( build_config ~rate:1.0 ~seed ~duration ~warmup ~nagle:"off" ~policy:"slo"
            ~epsilon:0.05 ~unit_mode ~value_size ~set_ratio ~vm_mult ~exchange:"100" (),
          observe_of_flags ~trace_out ~metrics_out ~sample_us,
          load_fault_plan fault_plan )
      with
      | Error e, _, _ | _, Error e, _ -> usage "%s" e
      | _, _, Error e -> fail "%s" e
      | Ok base, Ok observe, Ok fault ->
        let metrics = open_out_opt metrics_out in
        let base = { base with fault; cc = (base.cc || fault <> None) } in
        (* One job per (rate, mode), labelled as its trace lines are:
           off then on at each rate. *)
        let jobs =
          List.concat_map
            (fun krps ->
              List.map
                (fun (which, batching) ->
                  ( Some (Printf.sprintf "%s@%gk" which krps),
                    fun observe ->
                      Loadgen.Runner.run { base with observe; rate_rps = krps *. 1e3; batching } ))
                [ ("off", Loadgen.Runner.Static_off); ("on", Loadgen.Runner.Static_on) ])
            parsed
        in
        let results, events = traced_runs ~domains ~trace_out ~observe jobs in
        let rec pair rates results =
          match (rates, results) with
          | krps :: rates, off :: on :: results ->
            { Loadgen.Sweep.rate_rps = krps *. 1e3; on; off } :: pair rates results
          | _ -> []
        in
        let points = pair parsed results in
        pf "%6s | %10s %10s | %10s %10s\n" "kRPS" "off-meas" "off-est" "on-meas" "on-est";
        pf "%s\n" (String.make 58 '-');
        List.iter
          (fun (p : Loadgen.Sweep.point) ->
            let est = function
              | None -> "         -"
              | Some v -> Printf.sprintf "%8.1fus" v
            in
            pf "%6.0f | %8.1fus %s | %8.1fus %s\n" (p.rate_rps /. 1e3)
              p.off.measured_mean_us (est p.off.estimated_us) p.on.measured_mean_us
              (est p.on.estimated_us))
          points;
        (match Loadgen.Sweep.cutoff_rps points with
        | Some c -> pf "measured cutoff   : %.0f kRPS\n" (c /. 1e3)
        | None -> pf "measured cutoff   : not in sweep\n");
        (match Loadgen.Sweep.estimated_cutoff_rps points with
        | Some c -> pf "estimated cutoff  : %.0f kRPS\n" (c /. 1e3)
        | None -> pf "estimated cutoff  : not in sweep\n");
        (match Loadgen.Sweep.range_extension ~slo_us:500.0 points with
        | Some ext -> pf "SLO range ext.    : %.2fx\n" ext
        | None -> ());
        write_observability ~trace_out ~events ~metrics
          (List.combine (List.map fst jobs) results);
        `Ok ()
    end
  in
  let term =
    Term.(
      ret
        (const action $ rates_arg $ seed_arg $ duration_arg $ warmup_arg $ unit_arg
       $ value_size_arg $ set_ratio_arg $ vm_mult_arg $ domains_arg
       $ fault_plan_arg $ trace_out_arg $ metrics_out_arg $ sample_us_arg))
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Sweep offered load with Nagle on and off") term

(* {1 chaos} *)

let chaos_cmd =
  (* Chaos defaults differ from run/sweep: recovery from a blackout or a
     window-wiping loss burst is gated on the 200ms minimum RTO, so cells
     need a measured window comfortably past it, and an offered rate the
     congestion-controlled path can absorb while draining the backlog. *)
  let chaos_rate_arg =
    let doc = "Offered load in kRPS for every cell." in
    Arg.(value & opt float 10.0 & info [ "rate" ] ~docv:"KRPS" ~doc)
  in
  let chaos_duration_arg =
    let doc =
      "Measured duration in milliseconds (after warmup); keep well above the \
       200ms minimum RTO or blackout cells cannot recover in time."
    in
    Arg.(value & opt int 400 & info [ "duration-ms" ] ~doc)
  in
  let chaos_warmup_arg =
    let doc = "Warmup in milliseconds (excluded from statistics)." in
    Arg.(value & opt int 20 & info [ "warmup-ms" ] ~doc)
  in
  let losses_arg =
    let doc = "Comma-separated long-run loss rates for the grid." in
    Arg.(value & opt string "0,0.01,0.05" & info [ "losses" ] ~doc)
  in
  let reorders_arg =
    let doc = "Comma-separated reordering probabilities for the grid." in
    Arg.(value & opt string "0,0.05" & info [ "reorders" ] ~doc)
  in
  let blackouts_arg =
    let doc = "Comma-separated blackout durations in milliseconds (0 = none)." in
    Arg.(value & opt string "0,20" & info [ "blackouts-ms" ] ~doc)
  in
  let zero_window_arg =
    let doc =
      "Also run every cell in a zero-window variant (receive buffer squeezed \
       to 4 MSS, rate divided by 40) and assert the connection never stalls — \
       the regime where a lost window-update ack deadlocks a stack without \
       persist probing."
    in
    Arg.(value & flag & info [ "zero-window" ] ~doc)
  in
  let flash_crowd_arg =
    let doc =
      "Run the fleet-based flash-crowd cell instead of the wire grid: a 10x \
       square-wave rate envelope over a per-connection dynamic tenant, \
       asserting liveness and bounded re-convergence after every envelope \
       edge."
    in
    Arg.(value & flag & info [ "flash-crowd" ] ~doc)
  in
  let churn_storm_arg =
    let doc =
      "Run the fleet-based churn-storm cell instead of the wire grid: six \
       connections mass-connect mid-run and mass-disconnect again, asserting \
       clean drain/FIN, cold-start inheritance, and bounded estimate *and* \
       mode re-convergence."
    in
    Arg.(value & flag & info [ "churn-storm" ] ~doc)
  in
  let ablate_inherit_arg =
    let doc =
      "Ablation: disable cold-start inheritance in the flash-crowd/churn-storm \
       cells (spawned connections re-explore from scratch — the storm cell is \
       expected to fail its mode re-convergence bound)."
    in
    Arg.(value & flag & info [ "ablate-inherit" ] ~doc)
  in
  let numbers ?unit name s =
    Result.map_error (Printf.sprintf "--%s: %s" name) (Sim.Directive.(list (number ?unit)) s)
  in
  let verdict (v : Loadgen.Chaos.verdict) =
    if Loadgen.Chaos.ok v then "ok" else String.concat "; " v.failures
  in
  let print_load_cells verdicts =
    pf "%-30s | %9s %6s %6s | %9s %9s | %s\n" "cell" "completed" "opened" "closed"
      "est-settle" "mode-settle" "verdict";
    pf "%s\n" (String.make 96 '-');
    List.iter
      (fun (v : Loadgen.Chaos.verdict) ->
        let r = v.result in
        let completed, opened, closed =
          List.fold_left
            (fun (c, o, cl) (t : Loadgen.Fleet.tenant_result) ->
              (c + t.t_completed, o + t.t_conns_opened, cl + t.t_conns_closed))
            (0, 0, 0) r.tenants
        in
        let worst proj =
          match r.observability with
          | None -> "-"
          | Some o ->
            let settles = List.filter_map proj o.Loadgen.Observe.settling in
            if settles = [] then "-"
            else Printf.sprintf "%.0fus" (List.fold_left Float.max 0.0 settles)
        in
        pf "%-30s | %9d %6d %6d | %9s %9s | %s\n" v.cell.label completed opened closed
          (worst (fun g -> g.Loadgen.Observe.g_settle_us))
          (worst (fun g -> g.Loadgen.Observe.g_mode_settle_us))
          (verdict v))
      verdicts
  in
  let print_wire_cells verdicts =
    pf "%-40s | %8s %8s %8s | %s\n" "cell" "kRPS" "p99us" "drops" "verdict";
    pf "%s\n" (String.make 84 '-');
    List.iter
      (fun (v : Loadgen.Chaos.verdict) ->
        let t = List.hd v.result.tenants in
        pf "%-40s | %8.1f %8.1f %8d | %s\n" v.cell.label (t.t_achieved_rps /. 1e3)
          t.t_p99_us
          (match v.result.detail with Some d -> d.d_link_dropped | None -> 0)
          (verdict v))
      verdicts
  in
  let action rate seed duration warmup losses reorders blackouts zero_window
      flash_crowd churn_storm ablate_inherit domains trace_out metrics_out sample_us =
    let ( let* ) = Result.bind in
    let checked =
      let* losses = numbers "losses" losses in
      let* reorders = numbers "reorders" reorders in
      let* blackouts_ms = numbers ~unit:(Sim.Time.ms 1) "blackouts-ms" blackouts in
      let* base =
        build_config ~rate ~seed ~duration ~warmup ~nagle:"dynamic" ~policy:"slo"
          ~epsilon:0.05 ~unit_mode:"bytes" ~value_size:16384 ~set_ratio:1.0
          ~vm_mult:1.0 ~exchange:"100" ()
      in
      let* observe = observe_of_flags ~trace_out ~metrics_out ~sample_us in
      if domains < 1 then Error "--domains must be at least 1"
      else Ok (losses, reorders, blackouts_ms, { base with observe })
    in
    let judged verdicts =
      match List.filter (fun v -> not (Loadgen.Chaos.ok v)) verdicts with
      | [] ->
        pf "chaos               : all %d cells passed\n" (List.length verdicts);
        `Ok ()
      | bad ->
        fail "chaos: %d of %d cells failed invariants" (List.length bad)
          (List.length verdicts)
    in
    match checked with
    | Error e -> usage "%s" e
    | Ok _ when flash_crowd || churn_storm ->
      let inherit_prior = not ablate_inherit in
      let cells =
        (if flash_crowd then [ Loadgen.Chaos.(load_cell ~inherit_prior Flash_crowd) ] else [])
        @ if churn_storm then [ Loadgen.Chaos.(load_cell ~inherit_prior Churn_storm) ] else []
      in
      let verdicts = Loadgen.Chaos.run_grid ~domains cells in
      print_load_cells verdicts;
      judged verdicts
    | Ok (losses, reorders, blackouts_ms, base) ->
      let metrics = open_out_opt metrics_out in
      let zero_windows = if zero_window then [ false; true ] else [ false ] in
      let jobs =
        List.map
          (fun (cell : Loadgen.Chaos.cell) ->
            ( Some cell.label,
              fun observe ->
                Loadgen.Chaos.run_cell { cell with config = { cell.config with observe } } ))
          (Loadgen.Chaos.grid ~zero_windows ~base ~losses ~reorders ~blackouts_ms ())
      in
      let verdicts, events = traced_runs ~domains ~trace_out ~observe:base.observe jobs in
      print_wire_cells verdicts;
      write_outputs ~trace_out ~events ~metrics
        (List.filter_map
           (fun (v : Loadgen.Chaos.verdict) ->
             Option.map (fun o -> (Some v.cell.label, o)) v.result.observability)
           verdicts);
      judged verdicts
  in
  let term =
    Term.(
      ret
        (const action $ chaos_rate_arg $ seed_arg $ chaos_duration_arg
       $ chaos_warmup_arg $ losses_arg
       $ reorders_arg $ blackouts_arg $ zero_window_arg $ flash_crowd_arg
       $ churn_storm_arg $ ablate_inherit_arg $ domains_arg $ trace_out_arg
       $ metrics_out_arg $ sample_us_arg))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Soak a loss x reorder x blackout fault grid and assert liveness \
          invariants (accounting closure, audit closure, degrade/recover) on \
          every cell")
    term

(* {1 trace} *)

let trace_cmd =
  let out = Arg.(value & opt string "workload.trace" & info [ "out" ] ~doc:"Output path.") in
  let replay =
    Arg.(value & opt (some string) None & info [ "replay" ] ~doc:"Trace file to replay.")
  in
  let action rate seed duration out replay value_size set_ratio =
    match replay with
    | Some path -> (
      match Sim.Directive.file Loadgen.Trace.of_string path with
      | Error e -> fail "%s" e
      | Ok entries -> (
        match
          build_config ~rate ~seed ~duration ~warmup:20 ~nagle:"off" ~policy:"slo"
            ~epsilon:0.05 ~unit_mode:"bytes" ~value_size ~set_ratio ~vm_mult:1.0
            ~exchange:"100" ()
        with
        | Error e -> usage "%s" e
        | Ok cfg ->
          pf "replaying %d requests spanning %s from %s\n"
            (Loadgen.Trace.count entries)
            (Sim.Time.to_string (Loadgen.Trace.duration entries))
            path;
          print_result (Loadgen.Runner.run { cfg with trace = Some entries });
          `Ok ()))
    | None -> (
      match
        Loadgen.Workload.validate
          { Loadgen.Workload.paper_set_only with value_size; set_ratio }
      with
      | Error e -> usage "%s" e
      | Ok workload -> (
        let entries =
          Loadgen.Trace.synthesize ~workload ~rate_rps:(rate *. 1e3)
            ~duration:(Sim.Time.ms duration)
            ~rng:(Sim.Rng.create ~seed)
        in
        match Loadgen.Trace.save_file out entries with
        | Ok () ->
          pf "wrote %d requests (%s) to %s\n" (Loadgen.Trace.count entries)
            (Sim.Time.to_string (Loadgen.Trace.duration entries))
            out;
          `Ok ()
        | Error e -> fail "%s" e))
  in
  let term =
    Term.(
      ret
        (const action $ rate_arg $ seed_arg $ duration_arg $ out $ replay
       $ value_size_arg $ set_ratio_arg))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Synthesize a workload trace, or replay one with --replay FILE")
    term

(* {1 Trace readers}

   [inspect], [slo], [explain] and [report] each read their trace files
   (JSONL or binary) once through [Monitor.fold_runs], feeding every
   run's records to the monitors they print. *)

module Monitor = Loadgen.Monitor

let trace_file_arg =
  let doc = "Trace file produced by --trace-out (JSONL or binary)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let read_runs path ~make ~feed =
  match Monitor.fold_runs path ~make ~feed with Ok runs -> runs | Error msg -> fail "%s" msg

let print_skipped skipped =
  if skipped > 0 then pf "skipped %d unknown event records (newer trace version)\n" skipped

(* {1 inspect} *)

let print_breakdown ~indent spans =
  if spans <> [] then begin
    pf "%s%-14s %10s %10s %10s %10s\n" indent "phase" "p50" "p95" "p99" "mean";
    List.iter
      (fun (row : Sim.Span.row) ->
        pf "%s%-14s %8.2fus %8.2fus %8.2fus %8.2fus\n" indent
          (Sim.Span.phase_name row.phase)
          row.p50_us row.p95_us row.p99_us row.mean_us)
      (Sim.Span.breakdown spans)
  end

(* Print one run's inspection: time range, per-connection tallies, the
   timeline, then residuals, spans and audits for the whole run, per
   tenant and per shard.  Returns its complete spans for the --request
   critical-path lookup. *)
let print_run (run, ra) =
  let all = Monitor.Run.all ra in
  let n = Monitor.Spans.events all in
  let t0, t1 = Monitor.Run.range ra in
  pf "run %s: %d events spanning %s .. %s\n"
    (if run = "" then "-" else run)
    n (Sim.Time.to_string t0) (Sim.Time.to_string t1);
  List.iter
    (fun (id, tags) ->
      pf "  %-8s %7d events | %s\n" id
        (List.fold_left (fun acc (_, c) -> acc + c) 0 tags)
        (String.concat " " (List.map (fun (tag, c) -> Printf.sprintf "%s=%d" tag c) tags)))
    (Monitor.Run.conns ra);
  let timeline = Monitor.Run.timeline ra in
  pf "  timeline (first %d of %d):\n" (List.length timeline) n;
  List.iter (fun r -> pf "    %s\n" (Format.asprintf "%a" Sim.Trace.pp_record r)) timeline;
  (match Monitor.Spans.residual all with
  | Some s ->
    pf "  estimator residual: %s\n" (Format.asprintf "%a" E2e.Residual.pp_summary s)
  | None -> pf "  estimator residual: no estimate/request pairs\n");
  let spans = Monitor.Spans.spans all in
  pf "  spans: %d complete, %d incomplete\n" (List.length spans)
    (Monitor.Spans.incomplete all);
  print_breakdown ~indent:"  " spans;
  List.iter (fun r -> pf "  audit: %s\n" (Sim.Trace.detail r)) (Monitor.Spans.audits all);
  (* per tenant ("<tenant>/c0" ids), then per shard ("...@s<k>" ids) *)
  let group ~residual name sa =
    let gspans = Monitor.Spans.spans sa in
    pf "  %s: %d events, %d spans (%d incomplete)\n" name (Monitor.Spans.events sa)
      (List.length gspans) (Monitor.Spans.incomplete sa);
    if residual then
      Option.iter
        (fun s -> pf "    estimator residual: %s\n" (Format.asprintf "%a" E2e.Residual.pp_summary s))
        (Monitor.Spans.residual sa);
    print_breakdown ~indent:"    " gspans
  in
  List.iter (fun (tenant, sa) -> group ~residual:true ("tenant " ^ tenant) sa) (Monitor.Run.tenants ra);
  List.iter
    (fun (shard, sa) -> group ~residual:false (Printf.sprintf "shard s%d" shard) sa)
    (Monitor.Run.shards ra);
  spans

let inspect_cmd =
  let limit_arg =
    let doc = "Timeline events to print per run." in
    Arg.(value & opt int 30 & info [ "limit" ] ~docv:"N" ~doc)
  in
  let request_arg =
    let doc = "Print the critical path of request $(docv) (see --conn)." in
    Arg.(value & opt (some int) None & info [ "request" ] ~docv:"N" ~doc)
  in
  let conn_arg =
    let doc = "Connection the --request index refers to." in
    Arg.(value & opt string "c0" & info [ "conn" ] ~docv:"ID" ~doc)
  in
  let action file limit request conn =
    let runs, skipped =
      read_runs file ~make:(fun _ -> Monitor.Run.create ~limit) ~feed:Monitor.Run.feed
    in
    let spans = List.concat_map print_run runs in
    print_skipped skipped;
    Option.iter
      (fun req ->
        match
          List.find_opt
            (fun (s : Sim.Span.span) -> s.req = req && String.equal s.conn conn)
            spans
        with
        | Some span -> pf "%s\n" (Format.asprintf "%a" Sim.Span.pp span)
        | None ->
          fail "no complete span for request %d on %s (incomplete, or not in trace)" req conn)
      request;
    `Ok ()
  in
  let term = Term.(ret (const action $ trace_file_arg $ limit_arg $ request_arg $ conn_arg)) in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Print per-connection timelines, the span latency decomposition and \
          the estimator-residual summary from a trace file (JSONL or binary)")
    term

(* {1 SLO observatory (offline)} *)

(* Per-run SLO tables are [Observe]'s SLO fold over the trace file:
   [slo_declared] breadcrumbs carry each id's target, [Request_done]
   events its completions and "edge" breadcrumbs the discontinuities
   offline settling segments on.  Rows are the ids that both declared
   an SLO and traced completions. *)
let slo_rows reports =
  List.filter (fun (r : Loadgen.Observe.slo_report) -> r.r_total > 0) reports

let settle_verdict (g : Loadgen.Observe.settle_report) =
  match (g.g_steady_us, g.g_settle_us) with
  | None, _ -> "too few samples"
  | Some _, None -> "never settled"
  | Some _, Some _ -> "settled"

let fopt = function Some v -> Printf.sprintf "%8.1fus" v | None -> "         -"

(* Print one run's tables; returns every declared id's report. *)
let print_slo_run (run, fold) =
  let reports = Loadgen.Observe.slo_reports fold in
  let rows = slo_rows reports in
  pf "run %s: SLO attainment (burn window %.0fus, budget %.0f%%)\n"
    (if run = "" then "-" else run)
    Loadgen.Observe.slo_burn_window_us (100.0 *. Loadgen.Observe.slo_budget);
  pf "  %-16s %10s %8s %6s %8s %10s %10s %10s %9s %9s %12s\n" "id" "slo" "n"
    "viol" "attain" "p50" "p95" "p99" "max-burn" "end-burn" "first-burn";
  List.iter
    (fun (r : Loadgen.Observe.slo_report) ->
      pf "  %-16s %8.1fus %8d %6d %7.2f%% %s %s %s %9.2f %9.2f %s\n" r.r_id
        r.r_slo_us r.r_total r.r_violations
        (100.0 *. r.r_attainment)
        (fopt r.r_p50_us) (fopt r.r_p95_us) (fopt r.r_p99_us) r.r_max_burn
        r.r_final_burn
        (match r.r_first_burn_us with
        | Some us -> Printf.sprintf "%10.1fus" us
        | None -> "           -"))
    rows;
  (* sharded traces ("...@s<k>" ids): per-shard attainment roll-up *)
  let by_shard = Loadgen.Table.create () in
  List.iter
    (fun (r : Loadgen.Observe.slo_report) ->
      Option.iter
        (fun k ->
          let acc = Loadgen.Table.find_or_add by_shard k (fun _ -> ref (0, 0, 0.0)) in
          let n, viol, burn = !acc in
          acc := (n + r.r_total, viol + r.r_violations, Float.max burn r.r_max_burn))
        (Sim.Trace.shard_of_id r.r_id))
    rows;
  List.iter
    (fun (k, acc) ->
      let n, viol, burn = !acc in
      pf "  shard s%d: %d completions, %d violations, attain %.2f%%, \
          max-burn %.2f\n"
        k n viol
        (if n = 0 then 100.0
         else 100.0 *. (1.0 -. (float_of_int viol /. float_of_int n)))
        burn)
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) (Loadgen.Table.to_list by_shard));
  let settles = Loadgen.Observe.slo_settling fold in
  if settles <> [] then begin
    pf "  settling (1 ms ground-truth buckets between edge breadcrumbs):\n";
    pf "    %-16s %10s %10s %10s %10s  %s\n" "id" "edge" "seg-end" "steady"
      "settle" "verdict";
    List.iter
      (fun (g : Loadgen.Observe.settle_report) ->
        pf "    %-16s %8.0fus %8.0fus %s %s  %s\n" g.g_id g.g_edge_us g.g_end_us
          (fopt g.g_steady_us) (fopt g.g_settle_us) (settle_verdict g))
      settles
  end;
  reports

let slo_cmd =
  let action file =
    let runs, skipped =
      read_runs file
        ~make:(fun _ -> Loadgen.Observe.slo_fold ())
        ~feed:Loadgen.Observe.slo_fold_record
    in
    let reports = List.concat_map print_slo_run runs in
    print_skipped skipped;
    if reports = [] then
      fail
        "%s declares no SLOs (trace written without observability, or by an \
         older version?)"
        file
    else if slo_rows reports = [] then
      fail "%s has no traced completions for any declared SLO" file
    else `Ok ()
  in
  let term = Term.(ret (const action $ trace_file_arg)) in
  Cmd.v
    (Cmd.info "slo"
       ~doc:
         "Print per-tenant SLO attainment, tail percentiles and error-budget \
          burn rates rebuilt from a trace file (JSONL or binary)")
    term

(* {1 explain} *)

(* Reconstruct the control plane's decision ledger from a trace:
   [Decision_made] records carry both arms' estimates and the chosen
   action, [Decision_outcome] the realized latency of each tenure.
   A $(b,flip) is a decision whose action differs from the mode in
   force; [explain] prints its full causal chain.  Control groups are
   keyed by (run, id), so runs of a multi-run file stay apart. *)

(* A control group's name: its id, and its run in multi-run files. *)
let group_name (run, (g : Monitor.Decisions.group)) =
  if run = "" then g.id else Printf.sprintf "%s [%s]" g.id run

let arm_str = function
  | Some us -> Printf.sprintf "%.1fus" us
  | None -> "unsampled"

let print_flip ~flip_no (group, (f : Monitor.Decisions.flip)) =
  match f.made.event with
  | Sim.Trace.Decision_made { on_us; off_us; mode; action; reason; frozen; stale_us; _ } ->
    pf "flip #%d at %s on %s (decision #%d)\n" flip_no
      (Sim.Time.to_string f.made.at) (group_name group) f.decision;
    pf "  estimates : on %s | off %s\n" (arm_str on_us) (arm_str off_us);
    pf "  reason    : %s%s%s\n" reason
      (if frozen then " [FROZEN]" else "")
      (if stale_us < 0.0 then " (no remote share yet)"
       else Printf.sprintf " (freshest share %.1fus old)" stale_us);
    pf "  action    : %s -> %s\n" mode action;
    (match f.outcome with
    | Done { mean_us; p99_us; n } ->
      pf "  outcome   : mean %.1fus p99 %.1fus over %d requests\n" mean_us p99_us n
    | Idle -> pf "  outcome   : tenure saw no completions\n"
    | Open -> pf "  outcome   : open (run ended before the next decision)\n");
    (match f.previous with
    | Done { mean_us; p99_us; n } ->
      pf "  previous  : mean %.1fus p99 %.1fus over %d requests (decision \
          #%d's tenure)\n"
        mean_us p99_us n (f.decision - 1)
    | Idle | Open -> ());
    (match Monitor.Decisions.verdict f with
    | Some v ->
      pf "  verdict   : %s mean by %.1fus (%+.1f%%)\n"
        (if v.improved then "improved" else "regressed")
        v.by_us v.pct
    | None -> pf "  verdict   : no before/after pair to judge\n")
  | _ -> assert false

let explain_cmd =
  let conn_arg =
    let doc =
      "Restrict to the control group $(docv) (a group id as traced: \
       \"run\", \"fleet\", a tenant name, or a \"tenant/c0\" connection \
       label)."
    in
    Arg.(value & opt (some string) None & info [ "conn" ] ~docv:"ID" ~doc)
  in
  let tenant_arg =
    let doc = "Restrict to tenant $(docv)'s control groups." in
    Arg.(value & opt (some string) None & info [ "tenant" ] ~docv:"T" ~doc)
  in
  let flip_arg =
    let doc =
      "Explain only flip number $(docv) (0-based, in printed order: every flip \
       of the first control group, then the next group's)."
    in
    Arg.(value & opt (some int) None & info [ "flip" ] ~docv:"N" ~doc)
  in
  let action file conn tenant flip =
    match (conn, tenant) with
    | Some _, Some _ -> usage "--conn and --tenant are mutually exclusive"
    | _ ->
      let runs, skipped =
        read_runs file
          ~make:(fun _ -> Monitor.Decisions.create ())
          ~feed:Monitor.Decisions.feed
      in
      let groups =
        List.concat_map
          (fun (run, d) -> List.map (fun g -> (run, g)) (Monitor.Decisions.groups d))
          runs
      in
      if groups = [] then
        fail
          "%s records no control decisions (trace a dynamic or aimd run with \
           --trace-out, or was the file written by an older version?)"
          file;
      let keep (_, (g : Monitor.Decisions.group)) =
        match (conn, tenant) with
        | Some id, _ -> String.equal g.id id
        | _, Some t -> String.equal g.id t || Sim.Trace.tenant_of_id g.id = Some t
        | None, None -> true
      in
      let kept = List.filter keep groups in
      if kept = [] then
        fail "no control group matches (groups in this trace: %s)"
          (String.concat ", " (List.map group_name groups));
      let flips =
        List.concat_map
          (fun ((_, (g : Monitor.Decisions.group)) as group) ->
            List.map (fun f -> (group, f)) g.flips)
          kept
      in
      let n_flips = List.length flips in
      pf "%s: %d control group%s, %d decisions, %d flips\n" file (List.length kept)
        (if List.length kept = 1 then "" else "s")
        (List.fold_left (fun acc (_, (g : Monitor.Decisions.group)) -> acc + g.decisions) 0 kept)
        n_flips;
      (match flip with
      | None ->
        if flips = [] then pf "no mode flips: every decision kept the mode in force\n";
        List.iteri
          (fun i f ->
            if i > 0 then pf "\n";
            print_flip ~flip_no:i f)
          flips
      | Some n when n < 0 || n >= n_flips ->
        fail "flip %d out of range (%d flip%s in selection)" n n_flips
          (if n_flips = 1 then "" else "s")
      | Some n -> print_flip ~flip_no:n (List.nth flips n));
      print_skipped skipped;
      `Ok ()
  in
  let term =
    Term.(ret (const action $ trace_file_arg $ conn_arg $ tenant_arg $ flip_arg))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Reconstruct the causal chain of control-plane mode flips from a \
          trace file: per-arm estimates, the chosen action and why, and the \
          realized outcome of each tenure versus its predecessor")
    term

(* {1 report} *)

(* The datasets of a trace file, each a label and the span group it
   renders: per run "<file>[:<run>]" for the whole run, then
   "<label> <tenant>" per tenant tag (untagged traces have none; audit
   records carry no tenant, so audits show on the whole run only).
   Also each run's SLO fold, and the skipped-record count, from one
   pass over the file. *)
let datasets_of_file path =
  let runs, skipped =
    read_runs path
      ~make:(fun _ -> (Monitor.Run.create ~limit:0, Loadgen.Observe.slo_fold ()))
      ~feed:(fun (ra, fold) r ->
        Monitor.Run.feed ra r;
        Loadgen.Observe.slo_fold_record fold r)
  in
  let label run =
    if run = "" then Filename.basename path
    else Printf.sprintf "%s:%s" (Filename.basename path) run
  in
  ( List.concat_map
      (fun (run, (ra, _)) ->
        let label = label run in
        (label, Monitor.Run.all ra)
        :: List.map
             (fun (tenant, sa) -> (Printf.sprintf "%s %s" label tenant, sa))
             (Monitor.Run.tenants ra))
      runs,
    List.map (fun (run, (_, fold)) -> (label run, fold)) runs,
    skipped )

(* The percentiles a report shows and gates on: name, quantile, and
   its value in a span breakdown row. *)
let percentiles =
  [ ("p50", 0.50, fun (r : Sim.Span.row) -> r.p50_us);
    ("p95", 0.95, fun r -> r.p95_us);
    ("p99", 0.99, fun r -> r.p99_us) ]

(* Stacked bars for a dataset: one bar per percentile, one segment per
   phase.  Interleaved across datasets by [bars_for_all] so same
   percentiles of the two runs sit next to each other. *)
let bars_for (label, sa) =
  let rows = Sim.Span.breakdown (Monitor.Spans.spans sa) in
  List.map
    (fun (pct, _, pick) ->
      {
        Report.Stacked.label = Printf.sprintf "%s %s" label pct;
        segs =
          List.map
            (fun (row : Sim.Span.row) ->
              { Report.Stacked.name = Sim.Span.phase_name row.phase;
                value = pick row })
            rows;
      })
    percentiles

let bars_for_all datasets =
  match List.map bars_for datasets with
  | [] -> []
  | first :: rest ->
    (* transpose: [A p50; B p50; A p95; B p95; ...] *)
    List.concat
      (List.mapi
         (fun i bar -> bar :: List.map (fun bars -> List.nth bars i) rest)
         first)

let audit_table_rows sa =
  List.filter_map
    (fun (r : Sim.Trace.record) ->
      match r.event with
      | Sim.Trace.Audit_window { queue; l_avg; lambda_per_s; w_us; rel_err } ->
        Some
          [ queue; Printf.sprintf "%.4f" l_avg;
            Printf.sprintf "%.1f" lambda_per_s; Printf.sprintf "%.2f" w_us;
            Printf.sprintf "%.2f%%" (100.0 *. rel_err) ]
      | _ -> None)
    (Monitor.Spans.audits sa)

let summary_table datasets =
  Report.Html.table
    ~header:[ "run"; "requests"; "spans"; "incomplete"; "e2e p50"; "e2e p95"; "e2e p99" ]
    (List.map
       (fun (label, sa) ->
         [ label;
           string_of_int (Monitor.Spans.requests sa);
           string_of_int (List.length (Monitor.Spans.spans sa));
           string_of_int (Monitor.Spans.incomplete sa) ]
         @ List.map
             (fun (_, q, _) -> Printf.sprintf "%.1fus" (Monitor.Spans.e2e_us sa q))
             percentiles)
       datasets)

(* SLO panel: one table per [(label, fold)] run that declared SLOs,
   rebuilt from the same pass over the trace the datasets came from. *)
let slo_panel_sections slo_tables =
  let cell = function Some v -> Printf.sprintf "%.1fus" v | None -> "-" in
  String.concat ""
    (List.filter_map
       (fun (label, fold) ->
         let rows = slo_rows (Loadgen.Observe.slo_reports fold) in
         if rows = [] then None
         else
           let settles = Loadgen.Observe.slo_settling fold in
           let settle_section =
             if settles = [] then ""
             else
               Report.Html.paragraph
                 "Re-convergence after load discontinuities (envelope \
                  edges / churn epochs), recomputed from 1 ms \
                  ground-truth buckets between the trace's edge \
                  breadcrumbs."
               ^ Report.Html.table
                   ~header:[ "id"; "edge"; "segment end"; "steady"; "settle"; "verdict" ]
                   (List.map
                      (fun (g : Loadgen.Observe.settle_report) ->
                        [ g.g_id;
                          Printf.sprintf "%.0fus" g.g_edge_us;
                          Printf.sprintf "%.0fus" g.g_end_us;
                          cell g.g_steady_us;
                          cell g.g_settle_us;
                          settle_verdict g ])
                      settles)
           in
           Some
             (Report.Html.section
                ~title:(Printf.sprintf "SLO attainment — %s" label)
                (Report.Html.paragraph
                   (Printf.sprintf
                      "Histogram-derived tail percentiles against each \
                       tenant's declared SLO; burn is the sliding-window \
                       violation rate over a 1%% error budget (window \
                       %.0fus)."
                      Loadgen.Observe.slo_burn_window_us)
                ^ Report.Html.table
                    ~header:
                      [ "id"; "slo"; "requests"; "violations"; "attainment";
                        "p50"; "p95"; "p99"; "max burn"; "first burn" ]
                    (List.map
                       (fun (r : Loadgen.Observe.slo_report) ->
                         [ r.r_id;
                           Printf.sprintf "%.1fus" r.r_slo_us;
                           string_of_int r.r_total;
                           string_of_int r.r_violations;
                           Printf.sprintf "%.2f%%" (100.0 *. r.r_attainment);
                           cell r.r_p50_us; cell r.r_p95_us; cell r.r_p99_us;
                           Printf.sprintf "%.2f" r.r_max_burn;
                           cell r.r_first_burn_us ])
                       rows)
                ^ settle_section)))
       slo_tables)

let report_html ~slo_tables datasets =
  let bars = bars_for_all datasets in
  let body =
    Report.Html.section ~title:"Runs" (summary_table datasets)
    ^ slo_panel_sections slo_tables
    ^ Report.Html.section ~title:"Per-phase latency breakdown"
        (Report.Html.paragraph
           "Each bar decomposes the given percentile of end-to-end request \
            latency into its causal phases; all bars share one scale."
        ^ Report.Html.figure
            ~caption:
              "Stacked per-phase p50/p95/p99; hover a segment for its value."
            (Report.Stacked.render_svg bars))
    ^ String.concat ""
        (List.map
           (fun (label, sa) ->
             match audit_table_rows sa with
             | [] -> ""
             | rows ->
               Report.Html.section
                 ~title:(Printf.sprintf "Little's-law audit — %s" label)
                 (Report.Html.table
                    ~header:[ "queue"; "L (avg occupancy)"; "lambda (/s)";
                              "W (us)"; "|L-lW| rel err" ]
                    rows))
           datasets)
  in
  Report.Html.page ~title:"e2ebench report" ~body

let print_report_ascii datasets =
  print_string (Report.Stacked.render_ascii (bars_for_all datasets));
  List.iter
    (fun (label, sa) ->
      pf "\n%s: %d spans (%d incomplete)\n" label
        (List.length (Monitor.Spans.spans sa)) (Monitor.Spans.incomplete sa);
      List.iter (fun r -> pf "  audit %s\n" (Sim.Trace.detail r)) (Monitor.Spans.audits sa))
    datasets

(* --gate PHASE:P:TOL_US regression check: PHASE is a span phase name
   or "e2e", P one of p50/p95/p99.  The positional FILE is the
   candidate, --compare the baseline; the gate trips when the
   candidate's percentile exceeds the baseline's by more than TOL_US. *)
type gate = {
  gt_phase : string;
  gt_pct : string * float * (Sim.Span.row -> float);  (* one of [percentiles] *)
  gt_tol_us : float;
}

let parse_gate spec =
  match String.split_on_char ':' spec with
  | [ phase; pct; tol ] -> (
    let phase = String.lowercase_ascii phase in
    let pct = String.lowercase_ascii pct in
    let phases = List.map Sim.Span.phase_name Sim.Span.all_phases in
    if not (List.mem phase ("e2e" :: phases)) then
      Error
        (Printf.sprintf "unknown gate phase %S (e2e or one of: %s)" phase
           (String.concat ", " phases))
    else
      match
        ( List.find_opt (fun (name, _, _) -> String.equal name pct) percentiles,
          Sim.Directive.number tol )
      with
      | None, _ -> Error (Printf.sprintf "gate percentile must be p50/p95/p99, not %S" pct)
      | Some p, Ok t when t >= 0.0 -> Ok { gt_phase = phase; gt_pct = p; gt_tol_us = t }
      | Some _, _ ->
        Error (Printf.sprintf "gate tolerance must be a non-negative float, not %S" tol))
  | _ -> Error (Printf.sprintf "bad gate spec %S (want PHASE:P:TOL_US)" spec)

let gate_value g sa =
  let _, q, pick = g.gt_pct in
  if String.equal g.gt_phase "e2e" then Some (Monitor.Spans.e2e_us sa q)
  else
    List.find_map
      (fun (r : Sim.Span.row) ->
        if String.equal (Sim.Span.phase_name r.phase) g.gt_phase then Some (pick r) else None)
      (Sim.Span.breakdown (Monitor.Spans.spans sa))

let report_cmd =
  let compare_arg =
    let doc = "Second trace to compare side by side (the --gate baseline)." in
    Arg.(value & opt (some string) None & info [ "compare" ] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Output HTML path." in
    Arg.(value & opt string "report.html" & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let ascii_arg =
    let doc = "Print an ASCII rendering to stdout instead of writing HTML." in
    Arg.(value & flag & info [ "ascii" ] ~doc)
  in
  let gate_arg =
    let doc =
      "Regression gate $(i,PHASE):$(i,P):$(i,TOL_US) (requires --compare): \
       exit nonzero when the percentile $(i,P) of $(i,PHASE) (\"e2e\" or a \
       span phase) over $(i,FILE)'s whole run exceeds the --compare \
       baseline's by more than $(i,TOL_US) microseconds.  Both files must \
       hold a single run; a multi-run (sweep or chaos) trace fails the \
       gate."
    in
    Arg.(value & opt (some string) None & info [ "gate" ] ~docv:"SPEC" ~doc)
  in
  let action file compare out ascii gate =
    match (Option.map parse_gate gate, compare) with
    | Some (Error e), _ -> usage "%s" e
    | Some (Ok _), None -> usage "--gate requires --compare"
    | gate, _ ->
      let a, a_slo, a_skipped = datasets_of_file file in
      let b = Option.map (fun bf -> (bf, datasets_of_file bf)) compare in
      let datasets, slo_tables, skipped =
        match b with
        | None -> (a, a_slo, a_skipped)
        | Some (_, (db, b_slo, b_skipped)) -> (a @ db, a_slo @ b_slo, a_skipped + b_skipped)
      in
      let no_spans (_, sa) = Monitor.Spans.spans sa = [] in
      if List.for_all no_spans datasets then
        fail
          "no complete spans in input (no request completed in the traced \
           runs, or the file was written by an older version?)";
      (match (gate, b) with
      | Some (Ok g), Some (bfile, (db, b_slo, _)) -> (
        (* A gate judges one run against one run: each file's first
           dataset is its (only) run's whole run. *)
        List.iter
          (fun (f, slo) ->
            let n = List.length slo in
            if n > 1 then fail "--gate needs single-run traces, but %s holds %d runs" f n)
          [ (file, a_slo); (bfile, b_slo) ];
        let b_ds = List.hd db in
        if no_spans b_ds then fail "--gate baseline has no complete spans";
        let pct, _, _ = g.gt_pct in
        match (gate_value g (snd (List.hd a)), gate_value g (snd b_ds)) with
        | Some cand, Some base ->
          let delta = cand -. base in
          let verdict = delta <= g.gt_tol_us in
          pf "gate %s:%s       : candidate %.1fus baseline %.1fus \
              delta %+.1fus tol %.1fus -> %s\n"
            g.gt_phase pct cand base delta g.gt_tol_us
            (if verdict then "PASS" else "FAIL");
          if not verdict then
            fail "gate %s:%s failed: %s regressed %.1fus over %s (tolerance %.1fus)"
              g.gt_phase pct file delta bfile g.gt_tol_us
        | _ -> fail "gate phase %s has no spans to judge" g.gt_phase)
      | _ -> ());
      if ascii then print_report_ascii datasets
      else begin
        let html = report_html ~slo_tables datasets in
        if not (Report.Html.well_formed html) then
          fail "internal error: generated HTML is not well-formed";
        with_out out (fun oc -> output_string oc html);
        pf "report              : %d datasets, %d bytes -> %s\n"
          (List.length datasets) (String.length html) out
      end;
      print_skipped skipped;
      `Ok ()
  in
  let term =
    Term.(
      ret
        (const action $ trace_file_arg $ compare_arg $ out_arg $ ascii_arg
       $ gate_arg))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render per-phase latency breakdowns, per-tenant SLO attainment and \
          Little's-law audits from trace files as a self-contained HTML page \
          (or ASCII with --ascii), optionally gating on a phase-percentile \
          regression with --gate")
    term

(* {1 convert} *)

(* Lossless JSONL <-> binary trace conversion.  The direction is
   decided by sniffing the input's magic: binary input converts to
   JSONL, anything else is parsed as JSONL and converts to binary.
   Both directions stream record by record and preserve run labels, so
   converting there and back reproduces the original file's records
   exactly. *)
let convert_cmd =
  let in_arg =
    let doc = "Input trace file (JSONL or binary; the magic decides)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"IN" ~doc)
  in
  let out_arg =
    let doc = "Output trace file (the opposite format of $(i,IN))." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc)
  in
  let action input output =
    if String.equal input output then
      usage "input and output are the same file"
    else begin
      let from_binary = Sim.Trace.Binary.is_binary input in
      let result =
        with_out output (fun oc ->
            if from_binary then
              Sim.Trace.fold_file input ~init:0 ~f:(fun n run r ->
                  output_string oc (Sim.Trace.record_to_json ?run r);
                  output_char oc '\n';
                  n + 1)
            else begin
              let w = Sim.Trace.Binary.writer oc in
              match
                Sim.Trace.fold_jsonl input ~init:0 ~f:(fun n run r ->
                    Sim.Trace.Binary.write w ?run r;
                    n + 1)
              with
              | Ok n ->
                Sim.Trace.Binary.finish w;
                Ok n
              | Error _ as e -> e
            end)
      in
      match result with
      | Error e ->
        (try Sys.remove output with Sys_error _ -> ());
        fail "%s" e
      | Ok n ->
        pf "converted           : %d records %s -> %s (%s)\n" n input output
          (if from_binary then "jsonl" else "binary");
        `Ok ()
    end
  in
  let term = Term.(ret (const action $ in_arg $ out_arg)) in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Convert a trace file between JSONL and the compact binary format \
          (direction inferred from the input's magic), preserving every \
          record and run label exactly")
    term

(* {1 model} *)

let model_cmd =
  let alpha = Arg.(value & opt float 2.0 & info [ "alpha" ] ~doc:"Per-request cost.") in
  let beta = Arg.(value & opt float 4.0 & info [ "beta" ] ~doc:"Per-batch cost.") in
  let cost = Arg.(value & opt float 3.0 & info [ "client-cost" ] ~doc:"Client cost c.") in
  let n = Arg.(value & opt int 3 & info [ "n" ] ~doc:"Queued requests.") in
  let action alpha beta client_cost n =
    if n <= 0 || alpha < 0.0 || beta < 0.0 || client_cost < 0.0 then
      usage "parameters must be non-negative (n positive)"
    else begin
      let p = { E2e.Batch_model.alpha; beta; client_cost; n } in
      let b = E2e.Batch_model.batched p in
      let u = E2e.Batch_model.unbatched p in
      let show label (r : E2e.Batch_model.run) =
        pf "%-10s avg latency %.2f, makespan %.2f, throughput %.3f\n" label r.avg_latency
          r.makespan r.throughput
      in
      show "batched" b;
      show "unbatched" u;
      let v = E2e.Batch_model.compare p in
      pf "batching %s latency, %s throughput\n"
        (if v.batching_improves_latency then "improves" else "degrades")
        (if v.batching_improves_throughput then "improves" else "degrades");
      `Ok ()
    end
  in
  let term = Term.(ret (const action $ alpha $ beta $ cost $ n)) in
  Cmd.v (Cmd.info "model" ~doc:"Evaluate the Figure-1 analytic batching model") term

(* {1 scenario} *)

let mode_label = function
  | E2e.Toggler.Batch_on -> "on"
  | E2e.Toggler.Batch_off -> "off"

let print_fleet_result (r : Loadgen.Fleet.result) =
  pf "%-10s %10s %10s %9s %9s %9s %6s %9s\n" "tenant" "offered" "achieved"
    "mean" "p50" "p99" "<slo" "est";
  List.iter
    (fun (t : Loadgen.Fleet.tenant_result) ->
      pf "%-10s %10.0f %10.0f %7.1fus %7.1fus %7.1fus %5.1f%% %s\n" t.t_name
        t.t_offered_rps t.t_achieved_rps t.t_mean_us t.t_p50_us t.t_p99_us
        (100.0 *. t.t_under_slo)
        (match t.t_estimated_us with
        | Some us -> Printf.sprintf "%7.1fus" us
        | None -> "        -"))
    r.tenants;
  pf "fleet: %.0f rps, mean %.1fus, p99 %.1fus | server app %.2f irq %.2f\n"
    r.fleet_achieved_rps r.fleet_mean_us r.fleet_p99_us r.server_app_util
    r.server_irq_util;
  (* per-shard table only for sharded runs; cores=1 output is untouched *)
  (match r.shards with
  | [] | [ _ ] -> ()
  | shards ->
    pf "%-8s %6s %10s %10s %7s %7s %6s %6s\n" "shard" "conns" "issued"
      "achieved" "mean" "p99" "app" "irq";
    List.iter
      (fun (s : Loadgen.Fleet.shard_result) ->
        pf "s%-7d %6d %10d %10.0f %5.1fus %5.1fus %6.2f %6.2f\n" s.sh_index
          s.sh_conns s.sh_issued s.sh_achieved_rps s.sh_mean_us s.sh_p99_us
          s.sh_app_util s.sh_irq_util)
      shards);
  (match (r.goodput_max_min_ratio, r.goodput_jain) with
  | Some ratio, Some jain ->
    pf "fairness: goodput max/min %.3f, Jain %.3f\n" ratio jain
  | _ -> ());
  match Loadgen.Fleet.final_modes r with
  | [] -> ()
  | modes ->
    pf "final modes: %s\n"
      (String.concat " "
         (List.map (fun (gid, m) -> Printf.sprintf "%s=%s" gid (mode_label m)) modes))

let tenant_json (t : Loadgen.Fleet.tenant_result) =
  Report.Json.(
    Obj
      [
        ("name", String t.t_name);
        ("offered_rps", Float t.t_offered_rps);
        ("achieved_rps", Float t.t_achieved_rps);
        ("mean_us", Float t.t_mean_us);
        ("p50_us", Float t.t_p50_us);
        ("p99_us", Float t.t_p99_us);
        ("under_slo", Float t.t_under_slo);
        ("estimated_us", opt (fun v -> Float v) t.t_estimated_us);
        ("client_app_util", Float t.t_client_app_util);
        ("nagle_toggles", Int t.t_nagle_toggles);
      ])

let shard_json (s : Loadgen.Fleet.shard_result) =
  Report.Json.(
    Obj
      [
        ("index", Int s.sh_index);
        ("conns", Int s.sh_conns);
        ("issued", Int s.sh_issued);
        ("completed_total", Int s.sh_completed_total);
        ("outstanding_end", Int s.sh_outstanding_end);
        ("completed", Int s.sh_completed);
        ("achieved_rps", Float s.sh_achieved_rps);
        ("mean_us", Float s.sh_mean_us);
        ("p99_us", Float s.sh_p99_us);
        ("app_util", Float s.sh_app_util);
        ("irq_util", Float s.sh_irq_util);
      ])

let fleet_json (r : Loadgen.Fleet.result) =
  Report.Json.(
    Obj
      (("tenants", List (List.map tenant_json r.tenants))
       ::
       (* sharded runs only, so cores=1 JSON stays byte-identical *)
       (match r.shards with
       | [] | [ _ ] -> []
       | shards -> [ ("shards", List (List.map shard_json shards)) ])
      @ [
        ("fleet_achieved_rps", Float r.fleet_achieved_rps);
        ("fleet_mean_us", Float r.fleet_mean_us);
        ("fleet_p99_us", Float r.fleet_p99_us);
        ("goodput_max_min_ratio", opt (fun v -> Float v) r.goodput_max_min_ratio);
        ("goodput_jain", opt (fun v -> Float v) r.goodput_jain);
        ("server_app_util", Float r.server_app_util);
        ("server_irq_util", Float r.server_irq_util);
        ( "final_modes",
          Obj (List.map (fun (gid, m) -> (gid, String (mode_label m))) (Loadgen.Fleet.final_modes r))
        );
      ]))

let comparison_json (c : Scenario.Exec.comparison) =
  Report.Json.(
    Obj
      [
        ("tol", Float c.tol);
        ("candidate", fleet_json c.candidate);
        ("static_on", fleet_json c.static_on);
        ("static_off", fleet_json c.static_off);
        ( "verdicts",
          List
            (List.map
               (fun (v : Scenario.Exec.tenant_verdict) ->
                 Obj
                   [
                     ("name", String v.v_name);
                     ("candidate_us", Float v.v_candidate_us);
                     ("static_on_us", Float v.v_on_us);
                     ("static_off_us", Float v.v_off_us);
                     ("best_static_us", Float v.v_best_us);
                     ("candidate_fits", Bool v.v_candidate_fits);
                   ])
               c.verdicts) );
        ("on_fits_all", Bool c.on_fits_all);
        ("off_fits_all", Bool c.off_fits_all);
        ("no_global_static_fits", Bool c.no_global_static_fits);
        ("candidate_fits_all", Bool c.candidate_fits_all);
      ])

let scenario_cmd =
  let file_arg =
    let doc = "Scenario file (fleet/tenant directives; see lib/scenario)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let compare_arg =
    let doc =
      "Also run the two global-static variants and judge, per tenant, whether \
       the scenario as written stays within --tol of its best static latency."
    in
    Arg.(value & flag & info [ "compare-static" ] ~doc)
  in
  let tol_arg =
    let doc = "Relative tolerance for --compare-static verdicts." in
    Arg.(value & opt float 0.10 & info [ "tol" ] ~doc)
  in
  let print_arg =
    let doc = "Echo the canonical form of the parsed scenario before running." in
    Arg.(value & flag & info [ "print" ] ~doc)
  in
  let json_arg =
    let doc = "Write results as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let action file compare tol print json trace_out metrics_out sample_us =
    match observe_of_flags ~trace_out ~metrics_out ~sample_us with
    | Error e -> usage "%s" e
    | Ok (Some _) when compare ->
      usage "--trace-out/--metrics-out apply to plain runs, not --compare-static"
    | Ok observe ->
      let spec =
        match Sim.Directive.file Scenario.Spec.of_string file with
        | Ok spec -> spec
        | Error msg -> fail "%s" msg
      in
      let json_out = open_out_opt json and metrics = open_out_opt metrics_out in
      if print then pf "%s" (Scenario.Spec.to_string spec);
      pf "scope=%s tenants=%d seed=%d\n"
        (Loadgen.Fleet.scope_label spec.Scenario.Spec.scope)
        (List.length spec.Scenario.Spec.tenants)
        spec.Scenario.Spec.seed;
      let payload =
        if compare then begin
          let c = Scenario.Exec.compare_static ~tol spec in
          pf "\n== scenario as written ==\n";
          print_fleet_result c.candidate;
          pf "\n== global static on ==\n";
          print_fleet_result c.static_on;
          pf "\n== global static off ==\n";
          print_fleet_result c.static_off;
          pf "\nverdicts (tol %.0f%%):\n" (100.0 *. tol);
          List.iter
            (fun (v : Scenario.Exec.tenant_verdict) ->
              pf
                "  %-10s candidate %7.1fus | on %7.1fus off %7.1fus best %7.1fus | %s\n"
                v.v_name v.v_candidate_us v.v_on_us v.v_off_us v.v_best_us
                (if v.v_candidate_fits then "fits" else "MISSES"))
            c.verdicts;
          pf "no global static fits all: %b | scenario fits all: %b\n"
            c.no_global_static_fits c.candidate_fits_all;
          comparison_json c
        end
        else begin
          let r, events =
            traced_run ~trace_out ~observe (fun observe -> Scenario.Exec.run ?observe spec)
          in
          print_fleet_result r;
          (match r.Loadgen.Fleet.observability with
          | Some o -> write_outputs ~trace_out ~events ~metrics [ (None, o) ]
          | None -> ());
          fleet_json r
        end
      in
      Option.iter
        (fun (path, oc) ->
          output_string oc
            (Report.Json.to_string_pretty
               (Report.Json.Obj
                  [
                    ("scenario", Report.Json.String (Scenario.Spec.to_string spec));
                    ("result", payload);
                  ]));
          output_char oc '\n';
          close_out oc;
          pf "wrote %s\n" path)
        json_out;
      `Ok ()
  in
  let term =
    Term.(
      ret
        (const action $ file_arg $ compare_arg $ tol_arg $ print_arg $ json_arg
       $ trace_out_arg $ metrics_out_arg $ sample_us_arg))
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:
         "Run a declarative multi-tenant fleet scenario, optionally comparing \
          it against the global static batching modes")
    term

let () =
  let doc = "end-to-end-aware batching benchmarks (HotOS'25 reproduction)" in
  let info = Cmd.info "e2ebench" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [ run_cmd; sweep_cmd; chaos_cmd; model_cmd; trace_cmd; inspect_cmd;
        explain_cmd; slo_cmd; report_cmd; convert_cmd; scenario_cmd ]
  in
  exit
    (try Cmd.eval ~catch:false cmd with
    | Failed msg ->
      Printf.eprintf "e2ebench: %s\n" msg;
      1
    | e ->
      (* what [Cmd.eval] itself does with an uncaught exception *)
      Printf.eprintf "e2ebench: internal error, uncaught exception:\n%s\n"
        (Printexc.to_string e);
      Printexc.print_backtrace stderr;
      Cmd.Exit.internal_error)
