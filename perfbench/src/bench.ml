(* One benchmark run: either the end-to-end measurement (untraced,
   timed and GC-counted from outside) or the per-layer table (a traced
   run with a counting sink, plus the layer drivers). *)

module W = Workloads

let run_dir = Filename.concat "perfbench" "_run"
let reference_file = Filename.concat "perfbench" "reference.txt"
let default_seed = 42

(* Kept out of development runs; a claim is re-checked on it. *)
let held_out_seed = 7919

(* ---- metric catalogue ---- *)

type better = Lower | Higher
type metric = { name : string; unit : string; better : better }

let m name unit better = { name; unit; better }

let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "run_s" "s" Lower;
    m "wall_us_per_req" "us" Lower;
    m "alloc_words_per_req" "words" Lower;
    m "major_words_per_req" "words" Lower;
    m "promoted_words_per_req" "words" Lower;
    m "peak_heap_mb" "MB" Lower;
    m "heap_words_per_conn" "words" Lower;
    m "accounted_req_share" "share" Higher;
    m "output_match_share" "share" Higher;
  ]

let count_metrics =
  [
    m "tcp.tx_segments_per_req" "count" Lower;
    m "tcp.rx_segments_per_req" "count" Lower;
    m "tcp.acks_per_req" "count" Lower;
    m "tcp.nagle_holds_per_req" "count" Lower;
    m "tcp.delack_cancels_per_req" "count" Lower;
    m "e2e.shares_per_req" "count" Lower;
    m "e2e.estimates_per_req" "count" Lower;
    m "control.decisions_per_req" "count" Lower;
    m "trace.records_per_req" "count" Lower;
    m "packets_per_request" "count" Lower;
    m "server_gro_merge" "count" Higher;
    m "server_batch_mean" "count" Higher;
    m "sim.trace.bytes_per_req" "bytes" Lower;
  ]

let per_layer =
  List.concat_map
    (fun (l : Layers.layer) ->
      [
        m (l.name ^ ".ns_per_op") "ns" Lower;
        m (l.name ^ ".words_per_op") "words" Lower;
        m (l.name ^ ".ops_per_req") "count" Lower;
        m (l.name ^ ".us_per_req") "us" Lower;
      ])
    Layers.layers
  @ count_metrics
  @ [ m "layers.attributed_share" "share" Higher; m "trace_overhead_share" "share" Lower ]

(* ---- one simulation ---- *)

type binlog = {
  path : string;
  handed : int;  (** records the run handed to the sink *)
  written : int;  (** records the writer says it wrote *)
  bytes : int;
}

let observe sink = { Loadgen.Observe.default_config with trace_capacity = 1024; trace_sink = Some sink }

(* A counting run of an otherwise untraced workload: no sampling tick
   ever fires, so the counts are the program's own work and not the
   observability layer's per-connection sampling. *)
let observe_quietly sink = { (observe sink) with sample_interval = Sim.Time.sec 3600 }

(* Runs [sim] as workload [w] runs it: a binlog workload streams every
   record into a binary trace file; [count] tees records into a
   counting sink. *)
let simulate (w : W.t) ?count sim =
  let counted = match count with Some c -> Counting.add c | None -> ignore in
  if w.binlog then begin
    let path = Filename.concat run_dir (w.name ^ ".bin") in
    let oc = open_out_bin path in
    let wr = Sim.Trace.Binary.writer oc in
    let handed = ref 0 in
    let out =
      W.run
        (W.with_observe
           (observe (fun r ->
                incr handed;
                counted r;
                Sim.Trace.Binary.write wr r))
           sim)
    in
    Sim.Trace.Binary.finish wr;
    close_out oc;
    let written = Sim.Trace.Binary.written wr in
    (out, Some { path; handed = !handed; written; bytes = (Unix.stat path).st_size })
  end
  else
    match count with
    | None -> (W.run sim, None)
    | Some _ -> (W.run (W.with_observe (observe_quietly counted) sim), None)

(* Reads a binlog back: a writer that drops records, or miscounts
   them, fails here. *)
let binlog_ok = function
  | None -> true
  | Some b -> (
    match Sim.Trace.fold_file b.path ~init:0 ~f:(fun n _ _ -> n + 1) with
    | Ok n ->
      let ok = n = b.handed && b.written = b.handed in
      if not ok then
        Printf.eprintf "binlog: %d records handed to the writer, %d written, %d read back\n" b.handed
          b.written n;
      ok
    | Error msg ->
      Printf.eprintf "binlog: %s\n" msg;
      false)

(* ---- oracle bookkeeping across the runs of one benchmark run ---- *)

type oracle = {
  mutable expected : string option;  (** reference digest, or the first run's *)
  mutable runs : int;
  mutable mismatched : int;
  mutable issued : int;
  mutable lost : int;
  mutable failed : int;  (** requests of failing runs plus lost ones *)
}

let oracle_create ~workload ~seed =
  let expected = List.assoc_opt (workload, seed) (Oracle.load_reference reference_file) in
  (match expected with
  | Some _ -> Printf.eprintf "oracle: reference digest for %s seed %d\n" workload seed
  | None ->
    Printf.eprintf "oracle: no reference digest for %s seed %d; checking runs agree\n" workload seed);
  { expected; runs = 0; mismatched = 0; issued = 0; lost = 0; failed = 0 }

let check o ~what (out, binlog) =
  let c = Oracle.closure (Oracle.rows out) in
  let d = Oracle.digest out in
  let expected = match o.expected with Some e -> e | None -> o.expected <- Some d; d in
  let ok = d = expected && binlog_ok binlog in
  if c.broken <> [] then
    Printf.eprintf "oracle: %s: accounting closure broken for %s\n" what (String.concat ", " c.broken);
  if d <> expected then Printf.eprintf "oracle: %s: digest %s, expected %s\n" what d expected;
  o.runs <- o.runs + 1;
  o.issued <- o.issued + c.issued;
  o.lost <- o.lost + c.lost;
  if not ok then o.mismatched <- o.mismatched + 1;
  o.failed <- o.failed + (if ok then c.lost else max c.issued 1)

let oracle_correct o = o.runs > 0 && o.mismatched = 0 && o.lost = 0

(* ---- results ---- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
  table : string list;  (** human-readable lines printed before the JSON *)
}

let json_line r catalogue =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" r.correct
    r.attempted r.failed;
  List.iteri
    (fun i (mt : metric) ->
      let v = List.assoc mt.name r.values in
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        mt.name v mt.unit)
    catalogue;
  Buffer.add_string b "}}";
  Buffer.contents b

let now = Unix.gettimeofday

(* Set-up probes per measured run: enough that their median is steady
   even where one probe takes well under a millisecond. *)
let probes_per_rep (w : W.t) = if w.conns > 1 then 1 else 16

let probe_costs (w : W.t) sim =
  let p = W.probe sim in
  Gc.full_major ();
  List.init (probes_per_rep w) (fun _ -> snd (Measure.measure ~full:false (fun () -> simulate w p)))

(* ---- end to end ---- *)

type rep = { probes : Measure.cost list; full : Measure.cost }

let end_to_end_run (w : W.t) ~seed ~seconds =
  let sim = w.config ~seed in
  let o = oracle_create ~workload:w.name ~seed in
  let t_end = now () +. seconds in
  let reps = ref [] and requests = ref 0 in
  while now () < t_end || List.length !reps < 3 do
    let probes = probe_costs w sim in
    let out, full = Measure.measure (fun () -> simulate w sim) in
    check o ~what:(Printf.sprintf "run %d" (List.length !reps + 1)) out;
    requests := W.completed_total (fst out);
    Printf.eprintf "run %d: %.4f s\n%!" (List.length !reps + 1) full.wall_s;
    reps := { probes; full } :: !reps
  done;
  let fulls = List.map (fun r -> r.full) !reps in
  let probes = List.concat_map (fun r -> r.probes) !reps in
  let n = float_of_int (max 1 !requests) in
  let med f xs = Measure.median (List.map f xs) in
  let wall c = c.Measure.wall_s in
  let setup_s = med wall probes in
  let run_s = med wall fulls -. setup_s in
  let word_bytes = float_of_int (Sys.word_size / 8) in
  let values =
    [
      ("setup_s", setup_s);
      ("run_s", run_s);
      ("wall_us_per_req", run_s /. n *. 1e6);
      ("alloc_words_per_req", med Measure.alloc_words fulls /. n);
      ("major_words_per_req", med (fun c -> c.Measure.major) fulls /. n);
      ("promoted_words_per_req", med (fun c -> c.Measure.promoted) fulls /. n);
      ("peak_heap_mb", float_of_int (Measure.peak_heap_words ()) *. word_bytes /. 1e6);
      ("heap_words_per_conn", med (fun c -> c.Measure.major) probes /. float_of_int w.conns);
      ("accounted_req_share", 1.0 -. (float_of_int o.lost /. float_of_int (max 1 o.issued)));
      ("output_match_share", 1.0 -. (float_of_int o.mismatched /. float_of_int (max 1 o.runs)));
    ]
  in
  let table =
    Printf.sprintf "%s seed %d: %d measured runs, %d set-up probes, %d requests per run" w.name
      seed (List.length fulls) (List.length probes) !requests
    :: List.map (fun (k, v) -> Printf.sprintf "  %-24s %14.6g" k v) values
  in
  { correct = oracle_correct o; attempted = max 1 o.issued; failed = o.failed; values; table }

(* ---- per layer ---- *)

let counts_of (w : W.t) out (c : Counting.t) ~binlog_bytes =
  let requests = float_of_int (W.completed_total out) in
  let per x = if requests > 0.0 then float_of_int x /. requests else 0.0 in
  let packets, gro, batch =
    match out with
    | W.Single_r r -> (r.packets_per_request, r.server_gro_merge, r.server_batch_mean)
    | W.Fleet_r _ -> (per (c.tx_segments + c.acks), 0.0, 0.0)
  in
  ( {
      Layers.requests;
      conns = w.conns;
      sharded = (match out with W.Fleet_r r -> List.length r.shards > 1 | W.Single_r _ -> false);
      binlog = w.binlog;
      tx_segments = float_of_int c.tx_segments;
      rx_segments = float_of_int c.rx_segments;
      shares = float_of_int c.shares;
      decisions = float_of_int c.decisions;
      records = float_of_int c.records;
      packets_per_request = packets;
    },
    gro,
    [
      ("tcp.tx_segments_per_req", per c.tx_segments);
      ("tcp.rx_segments_per_req", per c.rx_segments);
      ("tcp.acks_per_req", per c.acks);
      ("tcp.nagle_holds_per_req", per c.nagle_holds);
      ("tcp.delack_cancels_per_req", per c.delack_cancels);
      ("e2e.shares_per_req", per c.shares);
      ("e2e.estimates_per_req", per c.estimates);
      ("control.decisions_per_req", per c.decisions);
      ("trace.records_per_req", per c.records);
      ("packets_per_request", packets);
      ("server_gro_merge", gro);
      ("server_batch_mean", batch);
      ("sim.trace.bytes_per_req", per binlog_bytes);
    ] )

let per_layer_run (w : W.t) ~seed ~seconds =
  let t_start = now () in
  let sim = w.config ~seed in
  let o = oracle_create ~workload:w.name ~seed in
  let setup_s = Measure.median (List.map (fun c -> c.Measure.wall_s) (probe_costs w sim)) in
  (* Untraced and traced runs alternate, so drift hits both alike. *)
  let plain = ref [] and traced = ref [] and last = ref None in
  while List.length !plain < 1 || (now () -. t_start < seconds /. 3.0 && List.length !plain < 9) do
    let out, cost = Measure.measure (fun () -> simulate w sim) in
    check o ~what:"untraced run" out;
    plain := cost.wall_s :: !plain;
    let count = Counting.create () in
    let out, cost = Measure.measure (fun () -> simulate w ~count sim) in
    check o ~what:"traced run" out;
    traced := cost.wall_s :: !traced;
    last := Some (out, count)
  done;
  let (out, binlog), count = Option.get !last in
  let binlog_bytes = match binlog with Some b -> b.bytes | None -> 0 in
  let counts, gro_merge, count_values = counts_of w out count ~binlog_bytes in
  let plain_s = Measure.median !plain in
  let wall_us_per_req = (plain_s -. setup_s) /. Float.max 1.0 counts.requests *. 1e6 in
  let seg_bytes = Counting.bytes_per_rx_segment count in
  let shape =
    {
      Layers.value_size = w.value_size;
      heap_depth = w.heap_depth;
      rate_rps = w.rate_rps;
      seg_bytes = int_of_float seg_bytes;
      chunk_bytes = int_of_float (seg_bytes *. Float.max 1.0 gro_merge);
      trace_sample = Array.of_list (Counting.sample count);
      scratch_file = Filename.concat run_dir (w.name ^ ".layer.bin");
    }
  in
  let remaining = seconds -. (now () -. t_start) in
  let budget_s = Float.max 0.05 (remaining /. float_of_int (List.length Layers.layers)) in
  let rows = Layers.measure_all ~budget_s shape counts in
  (try Sys.remove shape.scratch_file with Sys_error _ -> ());
  let attributed = Layers.attributed_share rows ~wall_us_per_req in
  let overhead = (Measure.median !traced /. plain_s) -. 1.0 in
  let values =
    List.concat_map
      (fun (r : Layers.row) ->
        [
          (r.layer.name ^ ".ns_per_op", r.cost.ns_per_op);
          (r.layer.name ^ ".words_per_op", r.cost.words_per_op);
          (r.layer.name ^ ".ops_per_req", r.ops);
          (r.layer.name ^ ".us_per_req", r.us);
        ])
      rows
    @ count_values
    @ [ ("layers.attributed_share", attributed); ("trace_overhead_share", overhead) ]
  in
  let table =
    Printf.sprintf "%s seed %d: wall %.3f us/req (untraced, %d runs), traced run +%.1f%%" w.name seed
      wall_us_per_req (List.length !plain) (overhead *. 100.0)
    :: Printf.sprintf "  %-18s %10s %10s %12s %10s" "layer" "ops/req" "ns/op" "words/op" "us/req"
    :: List.map
         (fun (r : Layers.row) ->
           Printf.sprintf "  %-18s %10.3f %10.1f %12.1f %10.3f%s" r.layer.name r.ops r.cost.ns_per_op
             r.cost.words_per_op r.us
             (if r.layer.phase = Layers.Setup then "  (set-up)" else ""))
         rows
    @ Printf.sprintf "  attributed share of wall time per request: %.3f" attributed
      :: List.map (fun (k, v) -> Printf.sprintf "  %-28s %12.4f" k v) count_values
  in
  { correct = oracle_correct o; attempted = max 1 o.issued; failed = o.failed; values; table }

let run (w : W.t) ~seed ~seconds ~trace =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let r, catalogue =
    if trace then (per_layer_run w ~seed ~seconds, per_layer)
    else (end_to_end_run w ~seed ~seconds, end_to_end)
  in
  (try Sys.remove (Filename.concat run_dir (w.name ^ ".bin")) with Sys_error _ -> ());
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) r.values in
  if not finite then prerr_endline "perfbench: a metric is not finite";
  let r = { r with correct = r.correct && finite } in
  let r =
    { r with values = List.map (fun (k, v) -> (k, if Float.is_finite v then v else 0.0)) r.values }
  in
  (r, json_line r catalogue)
