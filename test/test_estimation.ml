(* The estimator's computation against a reference built from the
   snapshot primitives, the aggregate fold against [Aggregate.combine],
   and what estimating costs in allocation. *)

module Q = E2e.Queue_state
module Est = E2e.Estimator

let us = Sim.Time.us

(* {1 Reference model}

   The windows kept as triples, as the paper states Algorithm 2: each
   estimate snapshots the three local queues, runs [Queue_state.get_avgs]
   on every queue of both windows, combines each vantage point with
   [Latency.combine] and takes [Latency.reconcile] of the two. *)

type model = {
  queues : Q.t array;  (* unacked, unread, ackdelay *)
  mutable local_prev : E2e.Exchange.triple;
  mutable remote_base : E2e.Exchange.triple option;
  mutable remote_latest : E2e.Exchange.triple option;
  mutable cold : bool;
}

let snapshot queues ~at : E2e.Exchange.triple =
  {
    unacked = Q.snapshot queues.(0) ~at;
    unread = Q.snapshot queues.(1) ~at;
    ackdelay = Q.snapshot queues.(2) ~at;
  }

let model () =
  let queues = Array.init 3 (fun _ -> Q.create ~at:0) in
  { queues; local_prev = snapshot queues ~at:0; remote_base = None; remote_latest = None; cold = false }

let delays ~(prev : E2e.Exchange.triple) ~(cur : E2e.Exchange.triple) =
  let delay p c =
    match Q.get_avgs ~prev:p ~cur:c with Some a -> a.latency_ns | None -> None
  in
  if cur.unacked.time - prev.unacked.time <= 0 then None
  else
    Some
      {
        E2e.Latency.unacked = delay prev.unacked cur.unacked;
        unread = delay prev.unread cur.unread;
        ackdelay = delay prev.ackdelay cur.ackdelay;
      }

let no_delays = { E2e.Latency.unacked = None; unread = None; ackdelay = None }

let reference m ~at =
  let cur = snapshot m.queues ~at in
  let window = at - m.local_prev.unacked.time in
  if window <= 0 then None
  else begin
    let local = Option.value (delays ~prev:m.local_prev ~cur) ~default:no_delays in
    let remote =
      match (m.remote_base, m.remote_latest) with
      | Some prev, Some cur -> delays ~prev ~cur
      | _ -> None
    in
    let latency_local_ns =
      E2e.Latency.combine ~local ~remote:(Option.value remote ~default:no_delays)
    in
    let latency_remote_ns =
      Option.bind remote (fun remote -> E2e.Latency.combine ~local:remote ~remote:local)
    in
    let throughput =
      match Q.get_avgs ~prev:m.local_prev.unacked ~cur:cur.unacked with
      | Some a -> a.throughput
      | None -> 0.0
    in
    let est : Est.estimate =
      {
        latency_ns = E2e.Latency.reconcile latency_local_ns latency_remote_ns;
        latency_local_ns;
        latency_remote_ns;
        throughput;
        window;
        stale = false;
      }
    in
    Some (est, cur)
  end

let model_estimate m ~at ~advance =
  if (not advance) && m.cold then None
  else
    match reference m ~at with
    | None -> None
    | Some (est, cur) when advance ->
      m.local_prev <- cur;
      if m.remote_latest <> None then m.remote_base <- m.remote_latest;
      if m.cold then begin
        m.cold <- false;
        None
      end
      else Some est
    | Some (est, _) -> Some est

(* Accepted by the estimator [e] (before it ingests [tr]): the three
   times agree and the ingest rule finds nothing wrong.  For a share in
   range and not from the future, the rule's "regress" must be the
   model's own: a counter behind the last share the model accepted. *)
let model_ingest m e ~at (tr : E2e.Exchange.triple) =
  let verdict =
    if tr.unacked.time <> tr.unread.time || tr.unread.time <> tr.ackdelay.time then "skew"
    else Est.verdict e ~at (E2e.Exchange.of_triple tr)
  in
  let behind (s : Q.share) (l : Q.share) = s.total < l.total || s.integral < l.integral in
  let regressed =
    match m.remote_latest with
    | None -> false
    | Some l ->
      tr.unacked.time < l.unacked.time || behind tr.unacked l.unacked
      || behind tr.unread l.unread || behind tr.ackdelay l.ackdelay
  in
  if (verdict = "" || verdict = "regress") && regressed <> (verdict = "regress") then
    failwith "the ingest rule and the model disagree on a regressed share";
  let accepted = verdict = "" in
  if accepted then begin
    if m.remote_base = None then m.remote_base <- Some tr;
    m.remote_latest <- Some tr
  end;
  accepted

(* {1 Operations} *)

type op =
  | Track of int * int * int  (** queue, items, µs before it *)
  | Ingest of int * int array * float array * bool
      (** µs past the latest share, total and integral steps per
          queue, times skewed across queues *)
  | Estimate of int * bool  (** µs before it, through [fold] *)
  | Peek of int * bool
  | Cold

let show_op = function
  | Track (q, n, dt) -> Printf.sprintf "Track(%d,%d,+%d)" q n dt
  | Ingest (dt, tot, integ, skew) ->
    Printf.sprintf "Ingest(+%d,[%s],[%s]%s)" dt
      (String.concat ";" (Array.to_list (Array.map string_of_int tot)))
      (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%g") integ)))
      (if skew then ",skew" else "")
  | Estimate (dt, f) -> Printf.sprintf "Estimate(+%d%s)" dt (if f then ",fold" else "")
  | Peek (dt, f) -> Printf.sprintf "Peek(+%d%s)" dt (if f then ",fold" else "")
  | Cold -> "Cold"

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (6, map3 (fun q n dt -> Track (q, n, dt)) (0 -- 2) (-3 -- 4) (0 -- 30));
        ( 3,
          map3
            (fun (dt, skew) tot integ -> Ingest (dt, tot, integ, skew))
            (pair (-5 -- 40) (frequency [ (9, return false); (1, return true) ]))
            (array_repeat 3 (-1 -- 4))
            (array_repeat 3 (oneof [ float_range (-5e3) 1e5; return 0.0 ])) );
        (3, map2 (fun dt f -> Estimate (dt, f)) (oneof [ return 0; 0 -- 50 ]) bool);
        (2, map2 (fun dt f -> Peek (dt, f)) (oneof [ return 0; 0 -- 50 ]) bool);
        (1, return Cold);
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map show_op ops))
    QCheck.Gen.(list_size (0 -- 60) gen_op)

let track e q ~at n =
  match q with
  | 0 -> Est.track_unacked e ~at n
  | 1 -> Est.track_unread e ~at n
  | _ -> Est.track_ackdelay e ~at n

let zero_triple : E2e.Exchange.triple =
  let s : Q.share = { time = 0; total = 0; integral = 0.0 } in
  { unacked = s; unread = s; ackdelay = s }

(* What [fold] left in a fresh accumulator, as an estimate. *)
let folded e ~at ~advance =
  let acc = E2e.Aggregate.acc () in
  if Est.fold e ~at ~advance acc then begin
    if acc.estimates <> 1.0 then failwith "fold added more than one estimate";
    Some
      {
        Est.latency_ns = E2e.Aggregate.known acc.last_latency_ns;
        latency_local_ns = E2e.Aggregate.known acc.last_local_ns;
        latency_remote_ns = E2e.Aggregate.known acc.last_remote_ns;
        throughput = acc.last_throughput;
        window = int_of_float acc.last_window_ns;
        stale = false;
      }
  end
  else if acc.estimates <> 0.0 then failwith "fold added an estimate it did not report"
  else None

let bits = Option.map Int64.bits_of_float

let same_estimate (a : Est.estimate option) (b : Est.estimate option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    bits a.latency_ns = bits b.latency_ns
    && bits a.latency_local_ns = bits b.latency_local_ns
    && bits a.latency_remote_ns = bits b.latency_remote_ns
    && Int64.bits_of_float a.throughput = Int64.bits_of_float b.throughput
    && a.window = b.window && a.stale = b.stale
  | Some _, None | None, Some _ -> false

(* Run [ops] on a fresh estimator and on the model; [check] sees every
   estimate both produced.  Returns the estimator and its clock. *)
let replay ?(check = fun _ _ -> ()) ops =
  let e = Est.create ~at:0 and m = model () and now = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Track (q, n, dt) ->
        now := !now + us dt;
        let n = Stdlib.max n (-Q.size m.queues.(q)) in
        track e q ~at:!now n;
        Q.track m.queues.(q) ~at:!now n
      | Ingest (dt, tot, integ, skew) ->
        let base = Option.value m.remote_latest ~default:zero_triple in
        let time = Stdlib.max 0 (base.unacked.time + us dt) in
        let step i (s : Q.share) : Q.share =
          {
            time = (if skew && i = 1 then time + 1 else time);
            total = s.total + tot.(i);
            integral = s.integral +. integ.(i);
          }
        in
        let tr : E2e.Exchange.triple =
          { unacked = step 0 base.unacked; unread = step 1 base.unread; ackdelay = step 2 base.ackdelay }
        in
        let rejected = Est.rejected_shares e in
        let accepted = model_ingest m e ~at:!now tr in
        Est.ingest_remote e ~at:!now tr;
        if accepted <> (Est.rejected_shares e = rejected) then
          failwith "the model and the estimator disagree on a share"
      | Estimate (dt, via_fold) | Peek (dt, via_fold) ->
        now := !now + us dt;
        let advance = match op with Estimate _ -> true | _ -> false in
        let got =
          if via_fold then folded e ~at:!now ~advance
          else if advance then Est.estimate e ~at:!now
          else Est.peek_estimate e ~at:!now
        in
        check got (model_estimate m ~at:!now ~advance)
      | Cold ->
        Est.set_cold_start e;
        m.cold <- true)
    ops;
  (e, !now)

let prop_compute_matches_reference =
  QCheck.Test.make ~name:"estimate = get_avgs/combine/reconcile reference, bit for bit"
    ~count:1000 arb_ops (fun ops ->
      let ok = ref true in
      ignore (replay ~check:(fun got want -> if not (same_estimate got want) then ok := false) ops);
      !ok)

(* The sequences above reach every case the computation branches on. *)
let test_reference_cases () =
  let case name ops ~want =
    let seen = ref [] in
    ignore (replay ~check:(fun got want -> seen := (got, want) :: !seen) ops);
    match !seen with
    | (got, ref_) :: _ ->
      Alcotest.(check bool) (name ^ ": matches reference") true (same_estimate got ref_);
      Alcotest.(check bool) (name ^ ": as expected") true (want got)
    | [] -> Alcotest.fail (name ^ ": no estimate taken")
  in
  let latency f = function Some (e : Est.estimate) -> f e | None -> false in
  case "no shares"
    [ Track (0, 1, 0); Track (0, -1, 10); Estimate (5, false) ]
    ~want:(latency (fun e -> e.latency_remote_ns = None && e.latency_local_ns <> None));
  case "zero departures" [ Track (0, 2, 0); Estimate (10, true) ]
    ~want:(latency (fun e -> e.latency_ns = None && e.throughput = 0.0));
  case "empty window" [ Track (0, 1, 5); Estimate (5, false); Estimate (0, true) ]
    ~want:(fun r -> r = None);
  case "cold start" [ Cold; Track (0, 1, 5); Track (0, -1, 5); Peek (5, false) ]
    ~want:(fun r -> r = None);
  case "cold start discards its first window"
    [ Cold; Track (0, 1, 5); Track (0, -1, 5); Estimate (5, true) ]
    ~want:(fun r -> r = None);
  case "both vantage points"
    [
      Ingest (0, [| 0; 0; 0 |], [| 0.0; 0.0; 0.0 |], false);
      Track (0, 2, 0); Track (1, 1, 0); Track (2, 1, 0);
      Track (0, -2, 20); Track (1, -1, 0); Track (2, -1, 0);
      Ingest (20, [| 1; 1; 1 |], [| 9e3; 4e3; 2e3 |], false);
      Peek (5, true);
    ]
    ~want:(latency (fun e -> e.latency_remote_ns <> None && e.latency_local_ns <> None));
  case "regressed share dropped"
    [
      Track (0, 1, 0); Track (0, -1, 30);
      Ingest (0, [| 0; 0; 0 |], [| 0.0; 0.0; 0.0 |], false);
      Ingest (10, [| 2; 2; 2 |], [| 5e3; 5e3; 5e3 |], false);
      Ingest (10, [| -1; 0; 0 |], [| 0.0; 0.0; 0.0 |], false);
      Estimate (1, false);
    ]
    ~want:(latency (fun e -> e.latency_remote_ns <> None))

(* {1 The aggregate fold} *)

(* [combine]'s arithmetic as a list fold: the sums in input order. *)
let combine_reference (inputs : E2e.Aggregate.input list) =
  let weighted, weight, flows, throughput =
    List.fold_left
      (fun (acc, w, n, tp) (i : E2e.Aggregate.input) ->
        let tp = tp +. i.throughput in
        match i.latency_ns with
        | Some l when i.throughput > 0.0 ->
          (acc +. (l *. i.throughput), w +. i.throughput, n + 1, tp)
        | Some _ | None -> (acc, w, n, tp))
      (0.0, 0.0, 0, 0.0) inputs
  in
  ((if weight > 0.0 then Some (weighted /. weight) else None), throughput, flows)

let same_aggregate (a : E2e.Aggregate.t) (lat, tput, flows) =
  bits a.latency_ns = bits lat
  && Int64.bits_of_float a.throughput = Int64.bits_of_float tput
  && a.flows = flows

let prop_combine_matches_reference =
  QCheck.Test.make ~name:"combine = the list fold, bit for bit" ~count:500
    QCheck.(
      list_of_size Gen.(0 -- 16)
        (pair (option (float_range 0.0 1e9)) (oneof [ always 0.0; float_range 0.0 1e6 ])))
    (fun l ->
      let inputs =
        List.map (fun (latency_ns, throughput) -> { E2e.Aggregate.latency_ns; throughput }) l
      in
      same_aggregate (E2e.Aggregate.combine inputs) (combine_reference inputs))

(* Folding estimators one by one gives what [combine] gives over their
   peeked estimates, and counts the estimates added. *)
let prop_fold_matches_combine =
  QCheck.Test.make ~name:"fold over estimators = combine over their estimates" ~count:200
    QCheck.(list_of_size Gen.(0 -- 6) arb_ops)
    (fun flows ->
      let ests = List.map (fun ops -> replay ops) flows in
      let at = List.fold_left (fun acc (_, now) -> Stdlib.max acc now) 0 ests + us 7 in
      let peeked = List.filter_map (fun (e, _) -> Est.peek_estimate e ~at) ests in
      let acc = E2e.Aggregate.acc () in
      List.iter (fun (e, _) -> ignore (Est.fold e ~at ~advance:false acc)) ests;
      let inputs =
        List.map
          (fun (p : Est.estimate) -> { E2e.Aggregate.latency_ns = p.latency_ns; throughput = p.throughput })
          peeked
      in
      let combined = E2e.Aggregate.combine inputs in
      same_aggregate (E2e.Aggregate.result acc)
        (combined.latency_ns, combined.throughput, combined.flows)
      && acc.estimates = float_of_int (List.length peeked))

let test_reset_and_copy () =
  let a = E2e.Aggregate.acc () and b = E2e.Aggregate.acc () in
  a.last_latency_ns <- 5.0;
  a.last_throughput <- 2.0;
  E2e.Aggregate.add_last a;
  E2e.Aggregate.copy_last ~src:a b;
  E2e.Aggregate.add_last b;
  Alcotest.(check bool) "copied estimate adds the same" true
    (E2e.Aggregate.result a = E2e.Aggregate.result b);
  E2e.Aggregate.reset a;
  Alcotest.(check bool) "reset empties" true
    (E2e.Aggregate.result a = E2e.Aggregate.combine [] && a.estimates = 0.0);
  Alcotest.(check bool) "absent latency" true (E2e.Aggregate.known a.last_latency_ns = None)

(* {1 Allocation} *)

let minor_words_per f ~iters =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int iters

(* An estimator with departures on all three queues in both windows. *)
let busy () =
  let e, _ =
    replay
      [
        Ingest (0, [| 1; 1; 1 |], [| 0.0; 0.0; 0.0 |], false);
        Track (0, 2, 0); Track (1, 1, 0); Track (2, 1, 0);
        Track (0, -2, 20); Track (1, -1, 0); Track (2, -1, 0);
        Ingest (20, [| 1; 1; 1 |], [| 9e3; 4e3; 2e3 |], false);
      ]
  in
  e

let test_estimate_allocates_its_result () =
  let e = busy () in
  let at = us 30 in
  let result_words name e ~present =
    let result = Est.peek_estimate e ~at in
    Alcotest.(check bool) (name ^ ": remote vantage point") present
      (match result with Some r -> r.latency_remote_ns <> None | None -> false);
    Alcotest.(check (float 0.0)) (name ^ ": the result's words")
      (float_of_int (Obj.reachable_words (Obj.repr result)))
      (minor_words_per (fun () -> ignore (Sys.opaque_identity (Est.peek_estimate e ~at))) ~iters:1000)
  in
  result_words "both windows" e ~present:true;
  result_words "local window only" (fst (replay [ Track (0, 1, 0); Track (0, -1, 10) ])) ~present:false;
  let acc = E2e.Aggregate.acc () in
  Alcotest.(check (float 0.0)) "fold: nothing" 0.0
    (minor_words_per (fun () -> ignore (Est.fold e ~at ~advance:false acc)) ~iters:1000)

(* A dynamic group's decision tick folds its members into one
   accumulator: what a tick allocates does not depend on how many
   members it reads. *)
let tick_words ~members =
  let engine = Sim.Engine.create () in
  let conns = Array.init members (fun _ -> Tcp.Conn.create engine ()) in
  ignore
    (Loadgen.Control.attach ~engine ~until:(Sim.Time.ms 200) ~rng:(Sim.Rng.create ~seed:3)
       ~fault_armed:false ~batching:(Loadgen.Control.Dynamic Loadgen.Control.default_dynamic)
       ~members:(fun f -> Array.iter (fun c -> f (Tcp.Conn.sock_a c) (Tcp.Conn.sock_b c)) conns)
       ());
  Sim.Engine.run_until engine (Sim.Time.ms 20);
  let before = Gc.minor_words () in
  Sim.Engine.run_until engine (Sim.Time.ms 120);
  (Gc.minor_words () -. before) /. 100.0

let test_tick_words_flat () =
  let one = tick_words ~members:1 and many = tick_words ~members:64 in
  if many > one then
    Alcotest.failf "a tick over 64 members allocates %.1f words, over one %.1f" many one

let suite =
  [
    ( "core.estimation",
      [
        QCheck_alcotest.to_alcotest prop_compute_matches_reference;
        Alcotest.test_case "reference cases" `Quick test_reference_cases;
        QCheck_alcotest.to_alcotest prop_combine_matches_reference;
        QCheck_alcotest.to_alcotest prop_fold_matches_combine;
        Alcotest.test_case "accumulator reset and copy" `Quick test_reset_and_copy;
        Alcotest.test_case "estimate allocates its result, fold nothing" `Quick
          test_estimate_allocates_its_result;
        Alcotest.test_case "dynamic tick words flat in group size" `Quick test_tick_words_flat;
      ] );
  ]
