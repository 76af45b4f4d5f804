(* Tests for the domain pool and the parallel sweep runner: ordering,
   exception propagation, Pool.map = List.map as a QCheck property, the
   headline determinism guarantee (a parallel sweep is bit-identical to
   the sequential one), and the specialized event heap's ordering. *)

(* {1 Pool} *)

let test_pool_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Par.Pool.map ~domains:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 4 ] (Par.Pool.map ~domains:4 (fun x -> x * 2) [ 2 ])

let test_pool_ordering () =
  let items = List.init 100 (fun i -> i) in
  Alcotest.(check (list int))
    "input order preserved"
    (List.map (fun i -> i * i) items)
    (Par.Pool.map ~domains:4 (fun i -> i * i) items)

let test_pool_uneven_costs () =
  (* Heavier early items must not shuffle the output: self-scheduling
     hands indexes out dynamically but results land by index. *)
  let work i =
    let spin = if i < 4 then 200_000 else 10 in
    let acc = ref 0 in
    for k = 1 to spin do
      acc := (!acc + k) land 0xFFFF
    done;
    ignore !acc;
    i
  in
  let items = List.init 32 (fun i -> i) in
  Alcotest.(check (list int)) "ordered despite skew" items (Par.Pool.map ~domains:4 work items)

exception Boom of int

let test_pool_exception_propagates () =
  match
    Par.Pool.map ~domains:4
      (fun i -> if i = 7 then raise (Boom i) else i)
      (List.init 16 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom 7 -> ()

let test_pool_invalid_domains () =
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Pool.map: domains must be positive") (fun () ->
      ignore (Par.Pool.map ~domains:0 (fun x -> x) [ 1; 2 ]))

let test_pool_default_domains () =
  Alcotest.(check bool) "at least one" true (Par.Pool.default_domains () >= 1)

let prop_pool_map_matches_list_map =
  QCheck.Test.make ~count:60 ~name:"Pool.map = List.map (pure f, any domain count)"
    QCheck.(
      triple (fun1 Observable.int small_int) (small_list int) (int_range 1 6))
    (fun (f, items, domains) ->
      Par.Pool.map ~domains (QCheck.Fn.apply f) items
      = List.map (QCheck.Fn.apply f) items)

(* {1 Event heap} *)

(* Each event's action records its own key, so taking and running it
   reads the keys in firing order. *)
let fired = ref (-1, -1)

let push h ~at ~seq =
  Sim.Event_heap.push h ~at ~seq Sim.Event_heap.none (fun () -> fired := (at, seq))

let take_key h =
  Sim.Event_heap.take h ();
  !fired

let prop_event_heap_sorted =
  QCheck.Test.make ~count:200 ~name:"Event_heap pops in (at, seq) order"
    QCheck.(small_list small_nat)
    (fun ats ->
      let h = Sim.Event_heap.create () in
      List.iteri (fun seq at -> push h ~at ~seq) ats;
      let got = List.init (List.length ats) (fun _ -> take_key h) in
      let expected = List.sort compare (List.mapi (fun seq at -> (at, seq)) ats) in
      got = expected && Sim.Event_heap.is_empty h)

let test_event_heap_peek_clear_slots () =
  let h = Sim.Event_heap.create () in
  Alcotest.(check bool) "empty" true (Sim.Event_heap.is_empty h);
  Alcotest.(check int) "min_at empty" max_int (Sim.Event_heap.min_at h);
  push h ~at:30 ~seq:0;
  push h ~at:10 ~seq:1;
  push h ~at:20 ~seq:2;
  Alcotest.(check int) "length" 3 (Sim.Event_heap.length h);
  Alcotest.(check int) "min_at" 10 (Sim.Event_heap.min_at h);
  let order = List.init 3 (fun _ -> fst (take_key h)) in
  Alcotest.(check (list int)) "sorted" [ 10; 20; 30 ] order

(* {1 Sweep determinism} *)

let small_base () =
  let base =
    Loadgen.Runner.default_config ~rate_rps:0.0 ~batching:Loadgen.Runner.Static_off
  in
  { base with warmup = Sim.Time.ms 5; duration = Sim.Time.ms 25 }

let test_sweep_parallel_deterministic () =
  let base = small_base () in
  let rates = [ 20e3; 60e3; 100e3 ] in
  let seq = Loadgen.Sweep.sweep ~domains:1 ~base ~rates () in
  let par = Loadgen.Sweep.sweep ~domains:4 ~base ~rates () in
  Alcotest.(check int) "same length" (List.length seq) (List.length par);
  (* structural equality covers every float, list and option in the
     result records: bit-identical, not approximately equal *)
  Alcotest.(check bool) "bit-identical points" true (seq = par)

let test_run_pair_parallel_deterministic () =
  let base = small_base () in
  let seq = Loadgen.Sweep.run_pair ~domains:1 ~base ~rate_rps:80e3 () in
  let par = Loadgen.Sweep.run_pair ~domains:2 ~base ~rate_rps:80e3 () in
  Alcotest.(check bool) "bit-identical pair" true (seq = par)

let suite =
  [
    ( "par",
      [
        Alcotest.test_case "pool: empty and singleton" `Quick test_pool_empty_and_singleton;
        Alcotest.test_case "pool: ordering" `Quick test_pool_ordering;
        Alcotest.test_case "pool: ordering under skew" `Quick test_pool_uneven_costs;
        Alcotest.test_case "pool: exception propagates" `Quick test_pool_exception_propagates;
        Alcotest.test_case "pool: invalid domains" `Quick test_pool_invalid_domains;
        Alcotest.test_case "pool: default domains" `Quick test_pool_default_domains;
        QCheck_alcotest.to_alcotest prop_pool_map_matches_list_map;
        Alcotest.test_case "event heap: basics" `Quick test_event_heap_peek_clear_slots;
        QCheck_alcotest.to_alcotest prop_event_heap_sorted;
        Alcotest.test_case "sweep: parallel = sequential" `Slow
          test_sweep_parallel_deterministic;
        Alcotest.test_case "run_pair: parallel = sequential" `Slow
          test_run_pair_parallel_deterministic;
      ] );
  ]
