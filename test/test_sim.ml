(* Tests for the simulation substrate: time, event heap, engine, rng, stats,
   cpu, trace. *)

let check_float = Alcotest.(check (float 1e-9))

(* {1 Time} *)

let test_time_units () =
  Alcotest.(check int) "us" 1_000 (Sim.Time.us 1);
  Alcotest.(check int) "ms" 1_000_000 (Sim.Time.ms 1);
  Alcotest.(check int) "sec" 1_000_000_000 (Sim.Time.sec 1);
  Alcotest.(check int) "of_us_float rounds" 1_500 (Sim.Time.of_us_float 1.5);
  check_float "to_us" 1.5 (Sim.Time.to_us 1_500);
  check_float "to_sec" 2.0 (Sim.Time.to_sec (Sim.Time.sec 2))

let test_time_arith () =
  let t = Sim.Time.add (Sim.Time.us 5) (Sim.Time.us 3) in
  Alcotest.(check int) "add" 8_000 t;
  Alcotest.(check int) "diff" 3_000 (Sim.Time.diff t (Sim.Time.us 5));
  Alcotest.(check int) "min" 5_000 (Sim.Time.min t (Sim.Time.us 5));
  Alcotest.(check int) "max" 8_000 (Sim.Time.max t (Sim.Time.us 5))

let test_time_pp () =
  Alcotest.(check string) "ns" "123ns" (Sim.Time.to_string 123);
  Alcotest.(check string) "us" "1.50us" (Sim.Time.to_string 1_500);
  Alcotest.(check string) "ms" "2.00ms" (Sim.Time.to_string 2_000_000);
  Alcotest.(check string) "s" "1.000s" (Sim.Time.to_string 1_000_000_000)

(* {1 Event heap} *)

(* A one-shot event keyed [(at, at)]. *)
let push_at h at action = Sim.Event_heap.push h ~at ~seq:at Sim.Event_heap.none action

let test_event_heap_order_and_sentinel () =
  let h = Sim.Event_heap.create () in
  Alcotest.(check bool) "empty" true (Sim.Event_heap.is_empty h);
  let fired = ref [] in
  List.iter (fun at -> push_at h at (fun () -> fired := at :: !fired)) [ 5; 3; 8; 1 ];
  Alcotest.(check int) "length" 4 (Sim.Event_heap.length h);
  Alcotest.(check int) "min_at is earliest" 1 (Sim.Event_heap.min_at h);
  let order =
    List.init 4 (fun _ ->
        let at = Sim.Event_heap.min_at h in
        Sim.Event_heap.take h ();
        at)
  in
  Alcotest.(check (list int)) "take drains in order" [ 1; 3; 5; 8 ] order;
  Alcotest.(check (list int)) "each take returns its own action" [ 1; 3; 5; 8 ]
    (List.rev !fired);
  Alcotest.(check bool) "drained" true (Sim.Event_heap.is_empty h);
  (* past empty, min_at returns a sentinel and take a no-op action
     instead of raising or boxing an option *)
  Alcotest.(check int) "sentinel min_at" max_int (Sim.Event_heap.min_at h);
  Sim.Event_heap.take h ();
  Alcotest.(check bool) "take past empty changes nothing" true (Sim.Event_heap.is_empty h);
  Alcotest.(check int) "nothing else fired" 4 (List.length !fired);
  (* the one-shot handle is never bound, and removing it is a no-op *)
  push_at h 2 ignore;
  Alcotest.(check int) "none stays unqueued" (-1) Sim.Event_heap.none.slot;
  Sim.Event_heap.remove h Sim.Event_heap.none;
  Alcotest.(check int) "removing none is a no-op" 1 (Sim.Event_heap.length h);
  let hd = Sim.Event_heap.handle () in
  Sim.Event_heap.push h ~at:9 ~seq:9 hd ignore;
  Alcotest.check_raises "a queued handle cannot be pushed again"
    (Invalid_argument "Event_heap.push: handle already queued") (fun () ->
      Sim.Event_heap.push h ~at:10 ~seq:10 hd ignore)

let test_event_heap_take_releases_action () =
  let h = Sim.Event_heap.create () in
  let w = Weak.create 1 in
  (fun () ->
    let big = Array.make 256 0 in
    Weak.set w 0 (Some big);
    push_at h 5 (fun () -> ignore (Array.length big));
    push_at h 9 ignore;
    Alcotest.(check int) "taking earliest" 5 (Sim.Event_heap.min_at h);
    Sim.Event_heap.take h ())
    ();
  Gc.full_major ();
  Alcotest.(check bool) "taken event's closure collectable" false (Weak.check w 0);
  Alcotest.(check int) "later event still queued" 1 (Sim.Event_heap.length h);
  (* a removed event's closure goes the same way, without waiting for
     its deadline *)
  let hd = Sim.Event_heap.handle () in
  (fun () ->
    let big = Array.make 256 1 in
    Weak.set w 0 (Some big);
    Sim.Event_heap.push h ~at:7 ~seq:7 hd (fun () -> ignore (Array.length big));
    Sim.Event_heap.remove h hd)
    ();
  Gc.full_major ();
  Alcotest.(check bool) "removed event's closure collectable" false (Weak.check w 0);
  Alcotest.(check int) "only the later event queued" 1 (Sim.Event_heap.length h);
  Alcotest.(check int) "removed handle unbound" (-1) hd.Sim.Event_heap.slot

let test_event_heap_clear_releases_actions () =
  let h = Sim.Event_heap.create () in
  let w = Weak.create 3 in
  let handles = Array.init 3 (fun _ -> Sim.Event_heap.handle ()) in
  (fun () ->
    for i = 0 to 2 do
      let big = Array.make 256 i in
      Weak.set w i (Some big);
      Sim.Event_heap.push h ~at:(i * 10) ~seq:i handles.(i) (fun () ->
          ignore (Array.length big))
    done)
    ();
  Sim.Event_heap.clear h;
  Alcotest.(check bool) "cleared" true (Sim.Event_heap.is_empty h);
  Gc.full_major ();
  for i = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "cleared event %d collectable" i)
      false (Weak.check w i);
    Alcotest.(check int)
      (Printf.sprintf "cleared handle %d unbound" i)
      (-1) handles.(i).Sim.Event_heap.slot
  done;
  (* heap stays usable after clear *)
  push_at h 7 ignore;
  Alcotest.(check int) "usable after clear" 7 (Sim.Event_heap.min_at h)

(* Random push/take/remove scripts against a sorted-list model.  Events
   are one-shot or carry a handle; removal targets a live handle (the
   root's when it has one, else any), or a handle that already left the
   heap, by removal or by take, or one queued in another heap; those
   must be no-ops.  Pushes outweigh the other operations, so the heap
   grows deep enough for a removal to need a sift up. *)
type heap_op =
  | Push of int
  | Push_handle of int
  | Take
  | Remove_root
  | Remove_live of int
  | Remove_removed of int
  | Remove_taken of int
  | Remove_foreign

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun at -> Push at) (0 -- 100));
        (4, map (fun at -> Push_handle at) (0 -- 100));
        (2, return Take);
        (1, return Remove_root);
        (2, map (fun k -> Remove_live k) nat);
        (1, map (fun k -> Remove_removed k) nat);
        (1, map (fun k -> Remove_taken k) nat);
        (1, return Remove_foreign);
      ])

let show_heap_op = function
  | Push at -> Printf.sprintf "push %d" at
  | Push_handle at -> Printf.sprintf "push handle %d" at
  | Take -> "take"
  | Remove_root -> "remove root"
  | Remove_live k -> Printf.sprintf "remove live %d" k
  | Remove_removed k -> Printf.sprintf "re-remove %d" k
  | Remove_taken k -> Printf.sprintf "remove taken %d" k
  | Remove_foreign -> "remove foreign"

let prop_event_heap_model =
  QCheck.Test.make ~count:300 ~name:"event heap matches a sorted-list model"
    QCheck.(
      make ~print:(fun ops -> String.concat "; " (List.map show_heap_op ops))
        Gen.(list_size (0 -- 120) heap_op_gen))
    (fun ops ->
      let h = Sim.Event_heap.create () in
      (* a handle bound in another heap, at slot 0 like this heap's
         first event *)
      let foreign = Sim.Event_heap.handle () in
      Sim.Event_heap.push (Sim.Event_heap.create ()) ~at:0 ~seq:0 foreign ignore;
      (* model: live (key, handle) pairs, and handles that left *)
      let live = ref [] and removed = ref [] and taken = ref [] in
      let fired = ref (-1, -1) in
      let next_seq = ref 0 in
      let nth_of l k = List.nth l (k mod List.length l) in
      let min_live () = List.hd (List.sort compare (List.map fst !live)) in
      let remove_live (key, hd) =
        Sim.Event_heap.remove h hd;
        live := List.filter (fun (k, _) -> k <> key) !live;
        removed := hd :: !removed
      in
      let push at hd =
        let key = (at, !next_seq) in
        incr next_seq;
        Sim.Event_heap.push h ~at ~seq:(snd key) hd (fun () -> fired := key);
        live := (key, hd) :: !live
      in
      let with_handle () =
        List.filter (fun (_, hd) -> hd != Sim.Event_heap.none) !live
      in
      let apply = function
        | Push at -> push at Sim.Event_heap.none
        | Push_handle at -> push at (Sim.Event_heap.handle ())
        | Take ->
          if !live <> [] then begin
            let expected = min_live () in
            Sim.Event_heap.take h ();
            if !fired <> expected then QCheck.Test.fail_report "take out of order";
            let hd = List.assoc expected !live in
            live := List.remove_assoc expected !live;
            if hd != Sim.Event_heap.none then taken := hd :: !taken
          end
        | Remove_root ->
          if !live <> [] then begin
            let key = min_live () in
            let hd = List.assoc key !live in
            if hd != Sim.Event_heap.none then remove_live (key, hd)
          end
        | Remove_live k ->
          let l = with_handle () in
          if l <> [] then remove_live (nth_of l k)
        | Remove_removed k ->
          if !removed <> [] then Sim.Event_heap.remove h (nth_of !removed k)
        | Remove_taken k ->
          if !taken <> [] then Sim.Event_heap.remove h (nth_of !taken k)
        | Remove_foreign -> Sim.Event_heap.remove h foreign
      in
      let slot hd = hd.Sim.Event_heap.slot in
      let consistent () =
        let n = List.length !live in
        let slots = List.map (fun (_, hd) -> slot hd) (with_handle ()) in
        Sim.Event_heap.length h = n
        && List.for_all (fun s -> s >= 0) slots
        && List.length (List.sort_uniq compare slots) = List.length slots
        && List.for_all (fun hd -> slot hd = -1) (!removed @ !taken)
        && slot foreign = 0
        &&
        if n = 0 then Sim.Event_heap.min_at h = max_int
        else Sim.Event_heap.min_at h = fst (min_live ())
      in
      List.for_all
        (fun op ->
          apply op;
          consistent ())
        ops
      &&
      let expected = List.sort compare (List.map fst !live) in
      let drained =
        List.init (List.length expected) (fun _ ->
            Sim.Event_heap.take h ();
            !fired)
      in
      drained = expected && Sim.Event_heap.is_empty h)

(* {1 Engine} *)

let test_engine_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Sim.Engine.schedule e ~after:(Sim.Time.us 30) (note "c"));
  ignore (Sim.Engine.schedule e ~after:(Sim.Time.us 10) (note "a"));
  ignore (Sim.Engine.schedule e ~after:(Sim.Time.us 20) (note "b"));
  Sim.Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "clock at last event" (Sim.Time.us 30) (Sim.Engine.now e)

let test_engine_fifo_ties () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore
      (Sim.Engine.schedule e ~after:(Sim.Time.us 10) (fun () -> log := i :: !log))
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "FIFO among ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.schedule e ~after:(Sim.Time.us 10) (fun () -> fired := true) in
  Sim.Engine.cancel e h;
  Alcotest.(check int) "pending drops" 0 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check bool) "did not fire" false !fired;
  (* double cancel is a no-op *)
  Sim.Engine.cancel e h;
  Alcotest.(check int) "double cancel leaves pending" 0 (Sim.Engine.pending e);
  let later () = Sim.Engine.schedule e ~after:(Sim.Time.us 50) ignore in
  (* cancel after the event fired *)
  let fired_h = Sim.Engine.schedule e ~after:(Sim.Time.us 10) ignore in
  ignore (later ());
  Sim.Engine.run_until e (Sim.Engine.now e + Sim.Time.us 20);
  Alcotest.(check int) "one left after firing" 1 (Sim.Engine.pending e);
  Sim.Engine.cancel e fired_h;
  Alcotest.(check int) "cancel after fire leaves pending" 1 (Sim.Engine.pending e);
  (* cancel from inside the event's own action *)
  let self = ref None in
  let inside = ref (-1) in
  self :=
    Some
      (Sim.Engine.schedule e ~after:(Sim.Time.us 10) (fun () ->
           Option.iter (Sim.Engine.cancel e) !self;
           inside := Sim.Engine.pending e));
  Sim.Engine.run_until e (Sim.Engine.now e + Sim.Time.us 20);
  Alcotest.(check int) "self-cancel leaves pending" 1 !inside;
  Alcotest.(check int) "self-cancel leaves pending after" 1 (Sim.Engine.pending e);
  (* cancel with a handle from another engine, whose slot index is
     occupied here by a different event *)
  let other = Sim.Engine.create () in
  let foreign = Sim.Engine.schedule other ~after:(Sim.Time.us 10) ignore in
  Sim.Engine.cancel e foreign;
  Alcotest.(check int) "foreign cancel leaves pending" 1 (Sim.Engine.pending e);
  Alcotest.(check int) "foreign cancel leaves its own engine" 1 (Sim.Engine.pending other);
  Sim.Engine.run e;
  Alcotest.(check int) "drained" 0 (Sim.Engine.pending e)

(* A restarted retransmission timer: cancel the old one, schedule anew.
   Cancelled events must leave the engine, not wait out their 200 ms
   deadline, or a busy connection's engine grows without bound. *)
let test_engine_cancel_releases () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let timer = ref (Sim.Engine.schedule e ~after:(Sim.Time.ms 200) (fun () -> incr fired)) in
  for _ = 1 to 100_000 do
    Sim.Engine.cancel e !timer;
    timer := Sim.Engine.schedule e ~after:(Sim.Time.ms 200) (fun () -> incr fired)
  done;
  Alcotest.(check int) "one timer pending" 1 (Sim.Engine.pending e);
  let words = Obj.reachable_words (Obj.repr e) in
  if words > 1_000 then Alcotest.failf "engine retains %d words after 100k restarts" words;
  Sim.Engine.run e;
  Alcotest.(check int) "only the last timer fires" 1 !fired

(* A fired event's slot is the next event's: its stale handle must not
   reach the new occupant, whether that was scheduled or posted. *)
let test_engine_cancel_after_slot_reuse () =
  let e = Sim.Engine.create () in
  let old_h = Sim.Engine.schedule e ~after:(Sim.Time.us 10) ignore in
  ignore (Sim.Engine.step e);
  Alcotest.(check bool) "fired handle not pending" false (Sim.Engine.is_pending old_h);
  let fired = ref 0 in
  let new_h = Sim.Engine.schedule e ~after:(Sim.Time.us 10) (fun () -> incr fired) in
  Sim.Engine.cancel e old_h;
  Alcotest.(check bool) "new event still pending" true (Sim.Engine.is_pending new_h);
  Alcotest.(check int) "still queued" 1 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Sim.Engine.post e ~after:(Sim.Time.us 10) (fun () -> incr fired);
  Sim.Engine.cancel e new_h;
  Alcotest.(check int) "posted event still queued" 1 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check int) "both fired" 2 !fired

(* Two fresh engines put their first events in slot 0: a handle from
   one must not cancel the other's. *)
let test_engine_fresh_foreign_handle () =
  let a = Sim.Engine.create () and b = Sim.Engine.create () in
  let ha = Sim.Engine.schedule a ~after:(Sim.Time.us 10) ignore in
  let hb = Sim.Engine.schedule b ~after:(Sim.Time.us 10) ignore in
  Sim.Engine.cancel a hb;
  Alcotest.(check int) "a keeps its event" 1 (Sim.Engine.pending a);
  Alcotest.(check bool) "a's handle pending" true (Sim.Engine.is_pending ha);
  Alcotest.(check bool) "b's handle pending" true (Sim.Engine.is_pending hb);
  Sim.Engine.cancel b hb;
  Alcotest.(check int) "b cancels its own" 0 (Sim.Engine.pending b);
  Alcotest.(check int) "a untouched" 1 (Sim.Engine.pending a)

(* Posted events leave nothing behind once fired. *)
let test_engine_post_releases () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let tick () = incr fired in
  for _ = 1 to 100_000 do
    Sim.Engine.post e ~after:(Sim.Time.us 1) tick;
    ignore (Sim.Engine.step e)
  done;
  Alcotest.(check int) "all fired" 100_000 !fired;
  Alcotest.(check int) "none pending" 0 (Sim.Engine.pending e);
  let words = Obj.reachable_words (Obj.repr e) in
  if words > 1_000 then Alcotest.failf "engine retains %d words after 100k posts" words

(* Random schedule/post/cancel/step scripts fire the same (at, seq)
   sequence as a naive list model.  Cancels pick any handle ever
   issued, so they also hit fired and already-cancelled events. *)
type engine_op = Schedule of int | Post of int | Cancel of int | Step | Run_until of int

let prop_engine_model =
  let gen =
    QCheck.Gen.(
      list_size (0 -- 150)
        (frequency
           [
             (4, map (fun d -> Schedule d) (0 -- 30));
             (3, map (fun d -> Post d) (0 -- 30));
             (2, map (fun k -> Cancel k) nat);
             (2, return Step);
             (1, map (fun d -> Run_until d) (0 -- 20));
           ]))
  in
  QCheck.Test.make ~count:300 ~name:"engine fires like a list model" (QCheck.make gen)
    (fun ops ->
      let e = Sim.Engine.create () in
      let fired = ref [] in
      let handles = ref [||] in
      let next_seq = ref 0 in
      (* model: live (at, seq) keys, and what fired *)
      let live = ref [] and model_fired = ref [] in
      let model_step () =
        match List.sort compare !live with
        | [] -> ()
        | k :: rest ->
          live := rest;
          model_fired := k :: !model_fired
      in
      let apply = function
        | Schedule d ->
          let seq = !next_seq in
          incr next_seq;
          let at = Sim.Engine.now e + d in
          let h = Sim.Engine.schedule e ~after:d (fun () -> fired := (at, seq) :: !fired) in
          handles := Array.append !handles [| (h, (at, seq)) |];
          live := (at, seq) :: !live
        | Post d ->
          let seq = !next_seq in
          incr next_seq;
          let at = Sim.Engine.now e + d in
          Sim.Engine.post e ~after:d (fun () -> fired := (at, seq) :: !fired);
          live := (at, seq) :: !live
        | Cancel k ->
          let n = Array.length !handles in
          if n > 0 then begin
            let h, key = !handles.(k mod n) in
            Sim.Engine.cancel e h;
            live := List.filter (( <> ) key) !live
          end
        | Step ->
          ignore (Sim.Engine.step e);
          model_step ()
        | Run_until d ->
          let deadline = Sim.Engine.now e + d in
          Sim.Engine.run_until e deadline;
          while List.exists (fun (at, _) -> at <= deadline) !live do
            model_step ()
          done
      in
      List.for_all
        (fun op ->
          apply op;
          Sim.Engine.pending e = List.length !live && !fired = !model_fired)
        ops
      &&
      (Sim.Engine.run e;
       while !live <> [] do
         model_step ()
       done;
       !fired = !model_fired && Sim.Engine.pending e = 0))

let test_engine_schedule_from_callback () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.schedule e ~after:(Sim.Time.us 10) (fun () ->
         log := Sim.Engine.now e :: !log;
         ignore
           (Sim.Engine.schedule e ~after:(Sim.Time.us 5) (fun () ->
                log := Sim.Engine.now e :: !log))));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "chained events" [ 10_000; 15_000 ] (List.rev !log)

let test_engine_run_until () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Sim.Engine.schedule e ~after:(Sim.Time.us 10) tick)
  in
  ignore (Sim.Engine.schedule e ~after:(Sim.Time.us 10) tick);
  Sim.Engine.run_until e (Sim.Time.us 55);
  Alcotest.(check int) "five ticks by 55us" 5 !count;
  Alcotest.(check int) "clock advanced to deadline" (Sim.Time.us 55) (Sim.Engine.now e)

let test_engine_negative_delay () =
  let e = Sim.Engine.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> ignore (Sim.Engine.schedule e ~after:(-1) ignore));
  Alcotest.check_raises "negative post" (Invalid_argument "Engine.post: negative delay")
    (fun () -> Sim.Engine.post e ~after:(-1) ignore)

let test_engine_past_schedule_at () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~after:(Sim.Time.us 10) ignore);
  Sim.Engine.run e;
  Alcotest.check_raises "past"
    (Invalid_argument "Engine.schedule_at: time is in the simulated past") (fun () ->
      ignore (Sim.Engine.schedule_at e ~at:(Sim.Time.us 5) ignore));
  Alcotest.check_raises "past post"
    (Invalid_argument "Engine.post_at: time is in the simulated past") (fun () ->
      Sim.Engine.post_at e ~at:(Sim.Time.us 5) ignore)

(* {1 Rng} *)

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:7 and b = Sim.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Sim.Rng.create ~seed:7 in
  let c = Sim.Rng.split a in
  let x = Sim.Rng.bits64 a and y = Sim.Rng.bits64 c in
  Alcotest.(check bool) "streams differ" true (not (Int64.equal x y))

(* The SplitMix64 sequence is part of every recorded digest: the first
   10k outputs of three seeds, one decimal per line, hashed. *)
let test_rng_sequence_pinned () =
  List.iter
    (fun (seed, digest) ->
      let r = Sim.Rng.create ~seed in
      let b = Buffer.create 200_000 in
      for _ = 1 to 10_000 do
        Buffer.add_string b (Int64.to_string (Sim.Rng.bits64 r));
        Buffer.add_char b '\n'
      done;
      Alcotest.(check string)
        (Printf.sprintf "seed %d" seed)
        digest
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    [
      (0, "5e8c30c6998bb8f644f592b5e24dd6ac");
      (1, "0e16b1e6638abca9c2b80b48e98371e3");
      (42, "fdc8d51127819bc6fb0291355f96dd76");
    ]

let test_rng_float_range () =
  let r = Sim.Rng.create ~seed:11 in
  for _ = 1 to 10_000 do
    let x = Sim.Rng.float r in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of range: %f" x
  done

let test_rng_int_range () =
  let r = Sim.Rng.create ~seed:13 in
  for _ = 1 to 10_000 do
    let x = Sim.Rng.int r ~bound:17 in
    if x < 0 || x >= 17 then Alcotest.failf "int out of range: %d" x
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Sim.Rng.int r ~bound:0))

let test_rng_exponential_mean () =
  let r = Sim.Rng.create ~seed:17 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.exponential r ~mean:250.0
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 250.0) > 5.0 then
    Alcotest.failf "exponential mean off: %f" mean

let test_rng_normal_moments () =
  let r = Sim.Rng.create ~seed:19 in
  let s = Sim.Stats.Summary.create () in
  for _ = 1 to 50_000 do
    Sim.Stats.Summary.add s (Sim.Rng.normal r ~mu:10.0 ~sigma:2.0)
  done;
  if Float.abs (Sim.Stats.Summary.mean s -. 10.0) > 0.1 then
    Alcotest.failf "normal mean off: %f" (Sim.Stats.Summary.mean s);
  if Float.abs (Sim.Stats.Summary.stddev s -. 2.0) > 0.1 then
    Alcotest.failf "normal stddev off: %f" (Sim.Stats.Summary.stddev s)

let test_rng_zipf_skew () =
  let r = Sim.Rng.create ~seed:23 in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let i = Sim.Rng.zipf r ~n:10 ~theta:1.0 in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "rank 0 most popular" true (counts.(0) > counts.(1));
  Alcotest.(check bool) "rank 1 beats rank 9" true (counts.(1) > counts.(9))

let test_rng_zipf_uniform_theta0 () =
  let r = Sim.Rng.create ~seed:29 in
  let counts = Array.make 4 0 in
  for _ = 1 to 40_000 do
    let i = Sim.Rng.zipf r ~n:4 ~theta:0.0 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c ->
      if c < 9_000 || c > 11_000 then Alcotest.failf "theta=0 not uniform: %d" c)
    counts

let test_rng_pareto_min () =
  let r = Sim.Rng.create ~seed:31 in
  for _ = 1 to 1_000 do
    let x = Sim.Rng.pareto r ~scale:5.0 ~shape:2.0 in
    if x < 5.0 then Alcotest.failf "pareto below scale: %f" x
  done

(* {1 Stats} *)

let test_summary_moments () =
  let s = Sim.Stats.Summary.create () in
  List.iter (Sim.Stats.Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float "mean" 5.0 (Sim.Stats.Summary.mean s);
  check_float "variance" (32.0 /. 7.0) (Sim.Stats.Summary.variance s);
  check_float "min" 2.0 (Sim.Stats.Summary.min s);
  check_float "max" 9.0 (Sim.Stats.Summary.max s);
  check_float "total" 40.0 (Sim.Stats.Summary.total s)

let test_summary_empty () =
  let s = Sim.Stats.Summary.create () in
  check_float "mean of empty" 0.0 (Sim.Stats.Summary.mean s);
  check_float "variance of empty" 0.0 (Sim.Stats.Summary.variance s)

let test_summary_merge () =
  let a = Sim.Stats.Summary.create () and b = Sim.Stats.Summary.create () in
  let all = Sim.Stats.Summary.create () in
  List.iter
    (fun x ->
      Sim.Stats.Summary.add (if x < 5.0 then a else b) x;
      Sim.Stats.Summary.add all x)
    [ 1.0; 2.0; 7.0; 8.0; 3.0; 9.0 ];
  let merged = Sim.Stats.Summary.merge a b in
  check_float "merged mean" (Sim.Stats.Summary.mean all) (Sim.Stats.Summary.mean merged);
  let check_close what x y =
    if Float.abs (x -. y) > 1e-9 then Alcotest.failf "%s: %f vs %f" what x y
  in
  check_close "merged variance" (Sim.Stats.Summary.variance all)
    (Sim.Stats.Summary.variance merged)

let test_histogram_percentiles () =
  let h = Sim.Stats.Histogram.create () in
  for i = 1 to 1000 do
    Sim.Stats.Histogram.add h (float_of_int i)
  done;
  let p50 = Sim.Stats.Histogram.percentile h 50.0 in
  let p99 = Sim.Stats.Histogram.percentile h 99.0 in
  (* log-bucketed: allow ~2/2^5 relative error *)
  if Float.abs (p50 -. 500.0) /. 500.0 > 0.10 then Alcotest.failf "p50 off: %f" p50;
  if Float.abs (p99 -. 990.0) /. 990.0 > 0.10 then Alcotest.failf "p99 off: %f" p99;
  Alcotest.(check int) "count" 1000 (Sim.Stats.Histogram.count h)

let test_histogram_empty_and_clamp () =
  let h = Sim.Stats.Histogram.create () in
  check_float "empty percentile" 0.0 (Sim.Stats.Histogram.percentile h 99.0);
  Sim.Stats.Histogram.add h (-5.0);
  Alcotest.(check int) "negative clamped, counted" 1 (Sim.Stats.Histogram.count h)

let test_histogram_merge () =
  let a = Sim.Stats.Histogram.create () and b = Sim.Stats.Histogram.create () in
  Sim.Stats.Histogram.add a 10.0;
  Sim.Stats.Histogram.add b 1000.0;
  let m = Sim.Stats.Histogram.merge a b in
  Alcotest.(check int) "merged count" 2 (Sim.Stats.Histogram.count m)

let prop_histogram_percentile_bounds =
  QCheck.Test.make ~name:"histogram median within sample range (log-bucket error)"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) (float_bound_exclusive 1e6))
    (fun xs ->
      let h = Sim.Stats.Histogram.create () in
      List.iter (Sim.Stats.Histogram.add h) xs;
      let sorted = List.sort compare xs in
      let lo = List.hd sorted and hi = List.nth sorted (List.length sorted - 1) in
      let med = Sim.Stats.Histogram.median h in
      (* upper-bound rounding: at most one bucket (~6%) above max *)
      med >= Float.min lo 1.0 *. 0.9 && med <= Float.max hi 1.0 *. 1.1)

(* {1 P2 quantiles} *)

let test_p2_exact_for_few_samples () =
  let p2 = Sim.Stats.P2.create ~q:0.5 in
  Alcotest.(check (option (float 0.0))) "empty" None (Sim.Stats.P2.value p2);
  List.iter (Sim.Stats.P2.add p2) [ 3.0; 1.0; 2.0 ];
  Alcotest.(check (option (float 1e-9))) "exact median of 3" (Some 2.0)
    (Sim.Stats.P2.value p2)

let test_p2_median_uniform () =
  let p2 = Sim.Stats.P2.create ~q:0.5 in
  let rng = Sim.Rng.create ~seed:21 in
  for _ = 1 to 50_000 do
    Sim.Stats.P2.add p2 (Sim.Rng.float rng *. 100.0)
  done;
  match Sim.Stats.P2.value p2 with
  | Some v ->
    if Float.abs (v -. 50.0) > 2.0 then Alcotest.failf "median estimate off: %f" v
  | None -> Alcotest.fail "no value"

let test_p2_p99_exponential () =
  let p2 = Sim.Stats.P2.create ~q:0.99 in
  let rng = Sim.Rng.create ~seed:22 in
  for _ = 1 to 100_000 do
    Sim.Stats.P2.add p2 (Sim.Rng.exponential rng ~mean:100.0)
  done;
  (* true p99 of exp(100) = 100 * ln(100) ~ 460.5 *)
  match Sim.Stats.P2.value p2 with
  | Some v ->
    if Float.abs (v -. 460.5) /. 460.5 > 0.10 then
      Alcotest.failf "p99 estimate off: %f (expected ~460.5)" v
  | None -> Alcotest.fail "no value"

let test_p2_invalid_q () =
  Alcotest.check_raises "q=0" (Invalid_argument "P2.create: q must be in (0,1)")
    (fun () -> ignore (Sim.Stats.P2.create ~q:0.0));
  Alcotest.check_raises "q=1" (Invalid_argument "P2.create: q must be in (0,1)")
    (fun () -> ignore (Sim.Stats.P2.create ~q:1.0))

let prop_p2_close_to_exact =
  QCheck.Test.make ~name:"P2 tracks the exact quantile on uniform data" ~count:30
    QCheck.(pair (int_range 1 100000) (float_range 0.1 0.9))
    (fun (seed, q) ->
      let p2 = Sim.Stats.P2.create ~q in
      let rng = Sim.Rng.create ~seed in
      let n = 3_000 in
      let samples = Array.init n (fun _ -> Sim.Rng.float rng *. 1000.0) in
      Array.iter (Sim.Stats.P2.add p2) samples;
      Array.sort compare samples;
      let exact = samples.(int_of_float (q *. float_of_int (n - 1))) in
      match Sim.Stats.P2.value p2 with
      | Some v -> Float.abs (v -. exact) < 60.0 (* within ~6% of the range *)
      | None -> false)

(* {1 Log-bucketed fixed histogram (Histo)} *)

let test_histo_empty () =
  let h = Sim.Histo.create () in
  Alcotest.(check int) "count" 0 (Sim.Histo.count h);
  Alcotest.(check (option (float 0.0))) "mean" None (Sim.Histo.mean h);
  Alcotest.(check (option (float 0.0))) "quantile" None (Sim.Histo.quantile h 50.0);
  Sim.Histo.add h 42.0;
  Sim.Histo.reset h;
  Alcotest.(check int) "count after reset" 0 (Sim.Histo.count h);
  Alcotest.(check (option (float 0.0))) "quantile after reset" None
    (Sim.Histo.quantile h 99.0)

let test_histo_single_value_bounds () =
  (* the quantile is the holding bucket's upper bound: >= the sample
     and within one bucket width of it, across magnitudes *)
  List.iter
    (fun v ->
      let h = Sim.Histo.create () in
      Sim.Histo.add h v;
      match Sim.Histo.quantile h 50.0 with
      | None -> Alcotest.fail "no quantile after add"
      | Some q ->
        if q < v then Alcotest.failf "quantile %f below sample %f" q v;
        if q -. v > Sim.Histo.width_at v +. 1e-9 then
          Alcotest.failf "quantile %f more than a bucket above %f" q v)
    [ 1.0; 1.03; 2.0; 17.5; 88.25; 1234.5; 9.99e5; 3.2e9 ]

let test_histo_sub_one_clamps () =
  let h = Sim.Histo.create () in
  List.iter (Sim.Histo.add h) [ 0.0; -3.0; 0.5; Float.nan ];
  Alcotest.(check int) "all counted" 4 (Sim.Histo.count h);
  match Sim.Histo.quantile h 99.0 with
  | Some q ->
    if q > 2.0 then Alcotest.failf "clamped values left the first octave: %f" q
  | None -> Alcotest.fail "no quantile"

let test_histo_merge_exact () =
  let a = Sim.Histo.create () and b = Sim.Histo.create () in
  let all = Sim.Histo.create () in
  let rng = Sim.Rng.create ~seed:7 in
  for i = 1 to 500 do
    let v = Sim.Rng.float rng *. 1e5 in
    Sim.Histo.add (if i mod 2 = 0 then a else b) v;
    Sim.Histo.add all v
  done;
  let m = Sim.Histo.copy a in
  Sim.Histo.merge ~into:m b;
  Alcotest.(check int) "merged count" (Sim.Histo.count all) (Sim.Histo.count m);
  (* sums accumulate in different orders; equal up to rounding *)
  if
    Float.abs (Sim.Histo.sum all -. Sim.Histo.sum m)
    > 1e-9 *. Float.abs (Sim.Histo.sum all)
  then
    Alcotest.failf "merged sum %f far from %f" (Sim.Histo.sum m)
      (Sim.Histo.sum all);
  List.iter
    (fun p ->
      Alcotest.(check (option (float 0.0)))
        (Printf.sprintf "merged p%g equals one-histogram p%g" p p)
        (Sim.Histo.quantile all p) (Sim.Histo.quantile m p))
    [ 1.0; 50.0; 95.0; 99.0; 100.0 ]

let prop_histo_quantile_close_to_exact =
  (* satellite bound: histo quantiles within 2 bucket widths of the
     exact nearest-rank value, for samples in the covered range *)
  QCheck.Test.make
    ~name:"Histo quantile within 2 bucket widths of exact nearest-rank"
    ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 300) (float_range 1.0 1e6))
        (float_range 0.0 100.0))
    (fun (xs, p) ->
      let h = Sim.Histo.create () in
      List.iter (Sim.Histo.add h) xs;
      let sorted = Array.of_list xs in
      Array.sort compare sorted;
      let n = Array.length sorted in
      let rank =
        Stdlib.max 1
          (Stdlib.min n (int_of_float (ceil (p /. 100.0 *. float_of_int n))))
      in
      let exact = sorted.(rank - 1) in
      match Sim.Histo.quantile h p with
      | None -> false
      | Some q -> Float.abs (q -. exact) <= 2.0 *. Sim.Histo.width_at exact)

let test_time_avg () =
  let ta = Sim.Stats.Time_avg.create ~at:0 ~value:1.0 in
  Sim.Stats.Time_avg.update ta ~at:(Sim.Time.us 10) ~value:4.0;
  (* 1 for 10us then 4 for 20us: average 3 — the paper's worked example. *)
  check_float "paper example" 3.0
    (Sim.Stats.Time_avg.average ta ~upto:(Sim.Time.us 30))

let test_time_avg_backwards () =
  let ta = Sim.Stats.Time_avg.create ~at:(Sim.Time.us 10) ~value:1.0 in
  Alcotest.check_raises "backwards"
    (Invalid_argument "Time_avg.update: time went backwards") (fun () ->
      Sim.Stats.Time_avg.update ta ~at:(Sim.Time.us 5) ~value:2.0)

(* {1 Cpu} *)

let test_cpu_fifo_and_busy () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e in
  let log = ref [] in
  Sim.Cpu.run cpu ~cost:(Sim.Time.us 10) (fun () -> log := ("a", Sim.Engine.now e) :: !log);
  Sim.Cpu.run cpu ~cost:(Sim.Time.us 5) (fun () -> log := ("b", Sim.Engine.now e) :: !log);
  Sim.Engine.run e;
  Alcotest.(check (list (pair string int)))
    "FIFO with accumulated start times"
    [ ("a", Sim.Time.us 10); ("b", Sim.Time.us 15) ]
    (List.rev !log);
  Alcotest.(check int) "busy total" (Sim.Time.us 15) (Sim.Cpu.busy_ns cpu)

let test_cpu_idle_gap () =
  let e = Sim.Engine.create () in
  let cpu = Sim.Cpu.create e in
  Sim.Cpu.run cpu ~cost:(Sim.Time.us 2) ignore;
  Sim.Engine.run e;
  ignore (Sim.Engine.schedule e ~after:(Sim.Time.us 100) (fun () ->
      Sim.Cpu.run cpu ~cost:(Sim.Time.us 3) ignore));
  Sim.Engine.run e;
  (* Work after an idle gap starts immediately, not at accumulated time. *)
  Alcotest.(check int) "finished at 105us" (Sim.Time.us 105) (Sim.Engine.now e);
  check_float "utilization over 105us" (5.0 /. 105.0)
    (Sim.Cpu.utilization cpu ~over:(Sim.Time.us 105))

(* {1 Trace} *)

let test_trace_disabled_by_default () =
  let tr = Sim.Trace.create () in
  Sim.Trace.emit tr ~at:0 ~tag:"x" ~detail:"y";
  Alcotest.(check int) "no records" 0 (List.length (Sim.Trace.records tr))

let test_trace_capture_and_find () =
  let tr = Sim.Trace.create () in
  Sim.Trace.set_enabled tr true;
  Sim.Trace.emit tr ~at:1 ~tag:"tx" ~detail:"seg 1";
  Sim.Trace.emitf tr ~at:2 ~tag:"rx" "seg %d" 2;
  Alcotest.(check int) "two records" 2 (List.length (Sim.Trace.records tr));
  match Sim.Trace.find tr ~tag:"rx" with
  | [ r ] -> Alcotest.(check string) "formatted" "seg 2" (Sim.Trace.detail r)
  | l -> Alcotest.failf "expected one rx record, got %d" (List.length l)

let test_trace_ring_overwrite () =
  let tr = Sim.Trace.create ~capacity:4 () in
  Sim.Trace.set_enabled tr true;
  for i = 1 to 10 do
    Sim.Trace.emit tr ~at:i ~tag:"t" ~detail:(string_of_int i)
  done;
  let records = Sim.Trace.records tr in
  Alcotest.(check int) "capped" 4 (List.length records);
  Alcotest.(check string) "oldest kept is 7" "7" (Sim.Trace.detail (List.hd records));
  Alcotest.(check int) "emitted counts overwrites" 10 (Sim.Trace.emitted tr);
  Alcotest.(check int) "dropped = emitted - capacity" 6 (Sim.Trace.dropped tr)

(* Satellite: a disabled trace must not evaluate emitf's format
   arguments, including %t printers whose side effects would otherwise
   leak into the simulation. *)
let test_trace_emitf_disabled_no_side_effects () =
  let tr = Sim.Trace.create () in
  let fired = ref 0 in
  let printer ppf =
    incr fired;
    Format.pp_print_string ppf "boom"
  in
  Sim.Trace.emitf tr ~at:1 ~tag:"x" "%t and %d" printer 7;
  Alcotest.(check int) "printer not invoked while disabled" 0 !fired;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Sim.Trace.records tr));
  Sim.Trace.set_enabled tr true;
  Sim.Trace.emitf tr ~at:2 ~tag:"x" "%t and %d" printer 7;
  Alcotest.(check int) "printer invoked when enabled" 1 !fired;
  match Sim.Trace.records tr with
  | [ r ] -> Alcotest.(check string) "formatted" "boom and 7" (Sim.Trace.detail r)
  | l -> Alcotest.failf "expected one record, got %d" (List.length l)

let test_trace_typed_events () =
  let tr = Sim.Trace.create () in
  Sim.Trace.set_enabled tr true;
  Sim.Trace.event tr ~at:10 ~id:"c0"
    (Sim.Trace.Segment_sent { seq = 0; len = 100; push = true; retx = false });
  Sim.Trace.event tr ~at:20 ~id:"c0"
    (Sim.Trace.Segment_sent { seq = 100; len = 50; push = false; retx = true });
  Sim.Trace.event tr ~at:30 ~id:"s0" (Sim.Trace.Ack_received { acked = 100; una = 100 });
  Sim.Trace.event tr ~at:40 ~id:"c0" (Sim.Trace.Nagle_toggle { enabled = false });
  Alcotest.(check int) "tx" 1 (List.length (Sim.Trace.find tr ~tag:"tx"));
  Alcotest.(check int) "retx" 1 (List.length (Sim.Trace.find tr ~tag:"retx"));
  Alcotest.(check int) "ack" 1 (List.length (Sim.Trace.find tr ~tag:"ack"));
  Alcotest.(check int) "toggle" 1 (List.length (Sim.Trace.find tr ~tag:"toggle"));
  match Sim.Trace.find tr ~tag:"ack" with
  | [ r ] -> Alcotest.(check string) "id carried" "s0" r.Sim.Trace.id
  | l -> Alcotest.failf "expected one ack record, got %d" (List.length l)

let test_trace_iter_fold_match_records () =
  let tr = Sim.Trace.create ~capacity:8 () in
  Sim.Trace.set_enabled tr true;
  for i = 1 to 13 do
    Sim.Trace.event tr ~at:i ~id:"c0" (Sim.Trace.Request_done { latency_us = float i })
  done;
  let records = Sim.Trace.records tr in
  let via_iter = ref [] in
  Sim.Trace.iter tr (fun r -> via_iter := r :: !via_iter);
  Alcotest.(check bool) "iter = records" true (List.rev !via_iter = records);
  let via_fold = Sim.Trace.fold tr ~init:[] ~f:(fun acc r -> r :: acc) in
  Alcotest.(check bool) "fold = records" true (List.rev via_fold = records);
  Alcotest.(check int) "ring capped" 8 (List.length records)

(* One value of every [Trace.event] constructor, with payloads chosen to
   exercise both encodings: u32-slot values past 2^32 and a negative seq
   force the wide flag; [None] latency and false booleans exercise the
   flag bits. *)
let trace_every_event : Sim.Trace.event list =
  [
    Sim.Trace.Segment_sent { seq = 12; len = 1448; push = true; retx = false };
    Sim.Trace.Segment_sent
      { seq = 0x1_0000_0001; len = 0x1_0000_0002; push = false; retx = true };
    Sim.Trace.Segment_received { seq = 12; fresh = 1448 };
    Sim.Trace.Ack_received { acked = 1448; una = 1460 };
    Sim.Trace.Nagle_hold { chunk = 64; in_flight = 1448 };
    Sim.Trace.Nagle_toggle { enabled = true };
    Sim.Trace.Nagle_toggle { enabled = false };
    Sim.Trace.Cork_hold { chunk = 256 };
    Sim.Trace.Delack_fire { pending = 2 };
    Sim.Trace.Delack_cancel { pending = 1 };
    Sim.Trace.Fin_received { rcv_nxt = 4242 };
    Sim.Trace.Segment_dropped { seq = -1; len = 1500; reason = "loss" };
    Sim.Trace.Segment_dropped { seq = 88; len = 64; reason = "blackout" };
    Sim.Trace.Segment_reordered { seq = 7; delay_us = 123.456 };
    Sim.Trace.Segment_duplicated { seq = 9 };
    Sim.Trace.Segment_challenged { seq = 9999; kind = "rst" };
    Sim.Trace.Segment_challenged { seq = -1; kind = "syn" };
    Sim.Trace.Probe_sent { seq = 1447; backoff = 1 };
    Sim.Trace.Probe_sent { seq = 0x1_0000_0003; backoff = 10 };
    Sim.Trace.Share_corrupted { seq = 11 };
    Sim.Trace.Share_rejected { reason = "w_us out of range" };
    Sim.Trace.Share_ingested { unacked_total = 3; unread_total = 7; ackdelay_total = 1 };
    Sim.Trace.Estimate_computed
      { latency_us = Some 123.456; throughput = 60000.25; window_us = 1000.0 };
    Sim.Trace.Estimate_computed { latency_us = None; throughput = 0.0; window_us = 0.5 };
    Sim.Trace.Request_done { latency_us = 88.25 };
    Sim.Trace.Req_issued { req = 17; off = 1234; len = 56 };
    Sim.Trace.Req_sent { req = 17 };
    Sim.Trace.Req_complete { req = 17 };
    Sim.Trace.Srv_start { req = 17 };
    Sim.Trace.Srv_reply { req = 17; off = 4321; len = 7 };
    Sim.Trace.Audit_window
      { queue = "c0.unacked"; l_avg = 3.25; lambda_per_s = 60000.5;
        w_us = 54.125; rel_err = 0.015625 };
    Sim.Trace.Message { tag = "note"; detail = "hello \"quoted\" \\ world" };
    Sim.Trace.Message { tag = ""; detail = "" };
    Sim.Trace.Decision_made
      { decision = 0; on_us = Some 92.125; off_us = Some 54.5; mode = "on";
        action = "off"; reason = "exploit"; frozen = false; stale_us = 18.75 };
    Sim.Trace.Decision_made
      { decision = 0x1_0000_0004; on_us = None; off_us = Some 54.5;
        mode = "off"; action = "off"; reason = "undersampled"; frozen = true;
        stale_us = -1.0 };
    Sim.Trace.Decision_made
      { decision = 7; on_us = Some 88.0; off_us = None; mode = "limit=4";
        action = "limit=8"; reason = "good"; frozen = false; stale_us = 0.0 };
    Sim.Trace.Decision_made
      { decision = 8; on_us = None; off_us = None; mode = "off"; action = "on";
        reason = "explore"; frozen = false; stale_us = 123.0625 };
    Sim.Trace.Decision_outcome
      { decision = 0; mean_us = 78.8125; p99_us = 148.0; n = 51 };
    Sim.Trace.Decision_outcome
      { decision = 0x1_0000_0004; mean_us = 0.0; p99_us = 0.0;
        n = 0x1_0000_0001 };
    Sim.Trace.Conn_opened { gen = 3; inherited = true };
    Sim.Trace.Conn_opened { gen = 0x1_0000_0005; inherited = false };
    Sim.Trace.Conn_closed { gen = 3; completed = 1234 };
    Sim.Trace.Conn_closed { gen = 0; completed = 0x1_0000_0006 };
    Sim.Trace.Lb_assigned { shard = 2; policy = "least_loaded" };
    Sim.Trace.Lb_assigned { shard = 0x1_0000_0007; policy = "round_robin" };
    Sim.Trace.Shard_enqueued { shard = 3; depth = 17 };
    Sim.Trace.Shard_enqueued { shard = 1; depth = 0x1_0000_0008 };
  ]

let trace_sample : (string option * Sim.Trace.record) list =
  List.mapi
    (fun i ev ->
      let run = match i mod 3 with 0 -> None | 1 -> Some "off@60k" | _ -> Some "on" in
      ( run,
        { Sim.Trace.at = Sim.Time.us (i + 1);
          id = Printf.sprintf "c%d" (i mod 4);
          event = ev } ))
    trace_every_event

let test_trace_json_roundtrip () =
  List.iteri
    (fun i (run, r) ->
      let line = Sim.Trace.record_to_json ?run r in
      match Sim.Trace.record_of_json line with
      | Ok (run', r') ->
        Alcotest.(check bool) (Printf.sprintf "run label %d" i) true (run = run');
        Alcotest.(check bool) (Printf.sprintf "record %d" i) true (r = r')
      | Error e -> Alcotest.failf "roundtrip %d failed on %s: %s" i line e)
    trace_sample

let test_trace_json_malformed () =
  List.iter
    (fun line ->
      match Sim.Trace.record_of_json line with
      | Ok _ -> Alcotest.failf "expected parse error for %s" line
      | Error _ -> ())
    [
      "";
      "not json";
      "[1,2]";
      "{\"at_ns\":1}";
      "{\"at_ns\":1,\"conn\":\"c0\",\"ev\":\"warp\"}";
      "{\"at_ns\":1,\"conn\":\"c0\",\"ev\":\"tx\",\"seq\":0,\"len\":1,\"push\":true,\"retx\":false} trailing";
      "{\"at_ns\":true,\"conn\":\"c0\",\"ev\":\"fin\",\"rcv_nxt\":1}";
    ]

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let test_trace_load_jsonl () =
  let dir = Filename.temp_file "e2e_trace" "" in
  Sys.remove dir;
  (* happy path: two labelled records round-trip through a file *)
  let r1 = { Sim.Trace.at = Sim.Time.us 1; id = "c0";
             event = Sim.Trace.Req_sent { req = 0 } } in
  let r2 = { Sim.Trace.at = Sim.Time.us 2; id = "c0";
             event = Sim.Trace.Req_complete { req = 0 } } in
  let path = dir ^ ".jsonl" in
  write_lines path
    [ Sim.Trace.record_to_json ~run:"a" r1; Sim.Trace.record_to_json r2 ];
  (match Sim.Trace.load_jsonl path with
  | Ok [ (Some "a", r1'); (None, r2') ] ->
    Alcotest.(check bool) "records preserved" true (r1 = r1' && r2 = r2')
  | Ok l -> Alcotest.failf "unexpected load result (%d records)" (List.length l)
  | Error e -> Alcotest.failf "load failed: %s" e);
  (* missing file *)
  (match Sim.Trace.load_jsonl (dir ^ ".does-not-exist") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error for a missing file");
  (* empty file *)
  let empty = dir ^ ".empty" in
  write_lines empty [];
  (match Sim.Trace.load_jsonl empty with
  | Error msg ->
    Alcotest.(check bool) "message names the file" true
      (String.length msg >= String.length empty
      && String.sub msg 0 (String.length empty) = empty)
  | Ok _ -> Alcotest.fail "expected an error for an empty file");
  (* malformed line reported with its number *)
  let bad = dir ^ ".bad" in
  write_lines bad [ Sim.Trace.record_to_json r1; "not json" ];
  (match Sim.Trace.load_jsonl bad with
  | Error msg ->
    let contains sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "line number in message" true (contains "line 2")
  | Ok _ -> Alcotest.fail "expected an error for a malformed line");
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; empty; bad ]

let test_trace_fold_jsonl () =
  let dir = Filename.temp_file "e2e_foldj" "" in
  Sys.remove dir;
  let r1 = { Sim.Trace.at = Sim.Time.us 1; id = "c0";
             event = Sim.Trace.Req_sent { req = 0 } } in
  let r2 = { Sim.Trace.at = Sim.Time.us 2; id = "c0";
             event = Sim.Trace.Req_complete { req = 0 } } in
  let path = dir ^ ".jsonl" in
  write_lines path
    [ Sim.Trace.record_to_json ~run:"a" r1; Sim.Trace.record_to_json r2 ];
  (match
     Sim.Trace.fold_jsonl path ~init:[] ~f:(fun acc run r -> (run, r) :: acc)
   with
  | Ok [ (None, r2'); (Some "a", r1') ] ->
    Alcotest.(check bool) "records streamed in order" true (r1 = r1' && r2 = r2')
  | Ok l -> Alcotest.failf "unexpected fold result (%d records)" (List.length l)
  | Error e -> Alcotest.failf "fold failed: %s" e);
  (* unlike [load_jsonl], an empty file folds to the initial accumulator *)
  let empty = dir ^ ".empty" in
  write_lines empty [];
  (match Sim.Trace.fold_jsonl empty ~init:42 ~f:(fun acc _ _ -> acc + 1) with
  | Ok n -> Alcotest.(check int) "empty file folds to init" 42 n
  | Error e -> Alcotest.failf "empty fold failed: %s" e);
  (match Sim.Trace.fold_jsonl (dir ^ ".does-not-exist") ~init:() ~f:(fun () _ _ -> ()) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected an error for a missing file");
  let contains msg sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
    in
    go 0
  in
  let bad = dir ^ ".bad" in
  write_lines bad
    [ Sim.Trace.record_to_json r1; Sim.Trace.record_to_json r2; "{broken" ];
  (match Sim.Trace.fold_jsonl bad ~init:0 ~f:(fun acc _ _ -> acc + 1) with
  | Error msg ->
    Alcotest.(check bool) "line number in message" true (contains msg "line 3");
    Alcotest.(check bool) "file name in message" true (contains msg bad)
  | Ok _ -> Alcotest.fail "expected an error for a malformed line");
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; empty; bad ]

(* A JSON number converts to an int field only when it is an integer
   the float parse holds exactly (|n| <= 2^53), and an optional float
   only from a number or null; anything else fails with the field and
   the line named. *)
let test_trace_json_strict_numbers () =
  let contains msg sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
    go 0
  in
  let rejects line ~field =
    match Sim.Trace.record_of_json line with
    | Ok _ -> Alcotest.failf "accepted %s" line
    | Error msg ->
      if not (contains msg (Printf.sprintf "%S" field)) then
        Alcotest.failf "error %S does not name %s" msg field
  in
  let tx seq len =
    Printf.sprintf {|{"at_ns":1000,"conn":"c0","ev":"tx","seq":%s,"len":%s,"push":true}|} seq len
  in
  rejects (tx "1.5" "1e300") ~field:"seq";
  rejects (tx "12" "1e300") ~field:"len";
  rejects (tx "9007199254740994" "1448") ~field:"seq";
  rejects (tx "-9007199254740994" "1448") ~field:"seq";
  let est latency =
    Printf.sprintf
      {|{"at_ns":24000,"conn":"c3","ev":"estimate",%s"throughput":0,"window_us":0.5}|} latency
  in
  rejects (est {|"latency_us":"abc",|}) ~field:"latency_us";
  rejects (est {|"latency_us":true,|}) ~field:"latency_us";
  rejects (est "") ~field:"latency_us";
  (match Sim.Trace.record_of_json (tx "9007199254740992" "1e3") with
  | Ok (_, { event = Sim.Trace.Segment_sent { seq; len; _ }; _ }) ->
    Alcotest.(check (pair int int)) "2^53 and 1e3 are exact" (9007199254740992, 1000) (seq, len)
  | Ok _ | Error _ -> Alcotest.fail "2^53 did not convert");
  (match Sim.Trace.record_of_json (est {|"latency_us":null,|}) with
  | Ok (_, { event = Sim.Trace.Estimate_computed { latency_us = None; _ }; _ }) -> ()
  | Ok _ | Error _ -> Alcotest.fail "null latency did not convert to None");
  let path = Filename.temp_file "e2e_strict" ".jsonl" in
  write_lines path [ est {|"latency_us":1.5,|}; tx "1.5" "1e300" ];
  (match Sim.Trace.fold_jsonl path ~init:0 ~f:(fun acc _ _ -> acc + 1) with
  | Error msg ->
    Alcotest.(check bool) "line 2 named" true (contains msg "line 2");
    Alcotest.(check bool) "field named" true (contains msg {|"seq"|})
  | Ok _ -> Alcotest.fail "fold accepted a fractional seq");
  Sys.remove path

(* A non-finite float is written as "nan", "inf" or "-inf" and reads
   back exactly, in an [F64] field and inside a [Some]: the record comes
   back equal with its floats compared by bits (marshalled bytes), and a
   binary -> JSONL -> binary round trip is byte-identical.  [null], as
   files written before hold it, still reads as [nan] and [None]. *)
let test_trace_json_nonfinite_float () =
  let est ~latency_us ~throughput =
    {
      Sim.Trace.at = 24_000;
      id = "c3";
      event = Sim.Trace.Estimate_computed { latency_us; throughput; window_us = 1000.0 };
    }
  in
  let records =
    [
      est ~latency_us:(Some Float.infinity) ~throughput:1.0;
      est ~latency_us:(Some Float.nan) ~throughput:1.0;
      est ~latency_us:(Some Float.neg_infinity) ~throughput:Float.nan;
      est ~latency_us:(Some 31.5) ~throughput:Float.neg_infinity;
      est ~latency_us:None ~throughput:Float.infinity;
    ]
  in
  let bits r = Marshal.to_string r [ Marshal.No_sharing ] in
  List.iter
    (fun r ->
      let line = Sim.Trace.record_to_json r in
      match Sim.Trace.record_of_json line with
      | Ok (None, r') ->
        Alcotest.(check bool) (Printf.sprintf "%s reads back bit-exact" line) true (bits r = bits r')
      | Ok (Some _, _) -> Alcotest.failf "%s read back with a run label" line
      | Error msg -> Alcotest.failf "%s did not read back: %s" line msg)
    records;
  (match
     Sim.Trace.record_of_json
       {|{"at_ns":24000,"conn":"c3","ev":"estimate","latency_us":null,"throughput":null,"window_us":1000}|}
   with
  | Ok (_, { event = Sim.Trace.Estimate_computed { latency_us = None; throughput; _ }; _ }) ->
    Alcotest.(check bool) "null F64 reads as nan" true (Float.is_nan throughput)
  | Ok _ | Error _ -> Alcotest.fail "null fields did not read as nan and None");
  let write_binary path rs =
    let oc = open_out_bin path in
    let w = Sim.Trace.Binary.writer oc in
    List.iter (fun r -> Sim.Trace.Binary.write w r) rs;
    Sim.Trace.Binary.finish w;
    close_out oc
  in
  let read_file path = In_channel.with_open_bin path In_channel.input_all in
  let bin = Filename.temp_file "e2e_nonfinite" ".bin" in
  let bin' = Filename.temp_file "e2e_nonfinite" ".bin" in
  write_binary bin records;
  (match
     Sim.Trace.Binary.fold_file bin ~init:[] ~f:(fun acc _ r ->
         match Sim.Trace.record_of_json (Sim.Trace.record_to_json r) with
         | Ok (_, r') -> r' :: acc
         | Error msg -> Alcotest.failf "JSONL line did not read back: %s" msg)
   with
  | Ok rev -> write_binary bin' (List.rev rev)
  | Error msg -> Alcotest.failf "binary read failed: %s" msg);
  Alcotest.(check bool) "binary -> JSONL -> binary is byte-identical" true
    (read_file bin = read_file bin');
  List.iter Sys.remove [ bin; bin' ]

(* {1 Binary trace format} *)

let test_trace_binary_roundtrip () =
  let path = Filename.temp_file "e2e_bin" ".bin" in
  let oc = open_out_bin path in
  let w = Sim.Trace.Binary.writer oc in
  List.iter (fun (run, r) -> Sim.Trace.Binary.write w ?run r) trace_sample;
  Alcotest.(check int) "written count"
    (List.length trace_sample)
    (Sim.Trace.Binary.written w);
  Sim.Trace.Binary.finish w;
  Sim.Trace.Binary.finish w; (* idempotent *)
  close_out oc;
  Alcotest.(check bool) "sniffs as binary" true (Sim.Trace.Binary.is_binary path);
  (match Sim.Trace.Binary.load_file path with
  | Ok loaded ->
    Alcotest.(check bool) "every constructor round-trips exactly" true
      (loaded = trace_sample)
  | Error e -> Alcotest.failf "load_file failed: %s" e);
  (* the format-dispatching fold must pick the binary reader *)
  (match
     Sim.Trace.fold_file path ~init:[] ~f:(fun acc run r -> (run, r) :: acc)
   with
  | Ok folded ->
    Alcotest.(check bool) "fold_file dispatches on magic" true
      (List.rev folded = trace_sample)
  | Error e -> Alcotest.failf "fold_file failed: %s" e);
  Sys.remove path

(* Golden bytes: [trace_sample] (every kind, narrow and wide
   slots, [None] and [Some] float options, with and without a run
   label) as JSONL lines, pinned in regress/trace_golden.jsonl, and as
   a binary file, pinned by its MD5. *)
let trace_golden_md5 = "6b6b78af3de1a03c8bc0e62740a621c9"

let test_trace_golden () =
  let expected =
    In_channel.with_open_text "regress/trace_golden.jsonl" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check (list string)) "JSONL lines" expected
    (List.map (fun (run, r) -> Sim.Trace.record_to_json ?run r) trace_sample);
  let path = Filename.temp_file "e2e_golden" ".bin" in
  let oc = open_out_bin path in
  let w = Sim.Trace.Binary.writer oc in
  List.iter (fun (run, r) -> Sim.Trace.Binary.write w ?run r) trace_sample;
  Sim.Trace.Binary.finish w;
  close_out oc;
  let md5 = Digest.to_hex (Digest.file path) in
  Sys.remove path;
  Alcotest.(check string) "binary MD5" trace_golden_md5 md5

let test_trace_binary_sniff_negative () =
  (* a JSONL file and a missing file are both not-binary, without raising *)
  let path = Filename.temp_file "e2e_sniff" ".jsonl" in
  let r = { Sim.Trace.at = 1; id = "c0"; event = Sim.Trace.Req_sent { req = 0 } } in
  write_lines path [ Sim.Trace.record_to_json r ];
  Alcotest.(check bool) "jsonl is not binary" false (Sim.Trace.Binary.is_binary path);
  Alcotest.(check bool) "missing file is not binary" false
    (Sim.Trace.Binary.is_binary (path ^ ".does-not-exist"));
  (* short file: fewer bytes than the magic *)
  let short = path ^ ".short" in
  let oc = open_out_bin short in
  output_string oc "e2e";
  close_out oc;
  Alcotest.(check bool) "short file is not binary" false
    (Sim.Trace.Binary.is_binary short);
  (* truncated binary file: valid header, missing footer *)
  let trunc = path ^ ".trunc" in
  let oc = open_out_bin trunc in
  let w = Sim.Trace.Binary.writer oc in
  Sim.Trace.Binary.write w r;
  close_out oc; (* no finish: tables and footer never written *)
  (match Sim.Trace.Binary.load_file trunc with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error for a truncated binary file");
  List.iter Sys.remove [ path; short; trunc ]

(* A footer whose counts disagree with the file: the reader must say
   where, not load a prefix of the records or size a table from the
   bad count.  Counts stay at or below 2^24 so that a reader which
   trusts them cannot exhaust memory. *)
let test_trace_binary_tampered_counts () =
  let path = Filename.temp_file "e2e_tamper" ".bin" in
  let oc = open_out_bin path in
  let w = Sim.Trace.Binary.writer oc in
  List.iter (fun (run, r) -> Sim.Trace.Binary.write w ?run r)
    (List.filteri (fun i _ -> i < 3) trace_sample);
  Sim.Trace.Binary.finish w;
  close_out oc;
  let good = In_channel.with_open_bin path In_channel.input_all in
  let footer = String.length good - 32 in
  let tamper name off set =
    let by = Bytes.of_string good in
    set by off;
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc by);
    match Sim.Trace.Binary.load_file path with
    | Ok l -> Alcotest.failf "%s: loaded %d records" name (List.length l)
    | Error msg ->
      let has sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (name ^ " error names a byte offset: " ^ msg) true (has "offset")
  in
  let i64 v by off = Bytes.set_int64_le by off (Int64.of_int v) in
  let u32 v by off = Bytes.set_int32_le by off (Int32.of_int v) in
  tamper "n_records = 2" (footer + 8) (i64 2);
  tamper "n_records = 4" (footer + 8) (i64 4);
  tamper "n_records = -1" (footer + 8) (i64 (-1));
  tamper "n_names = 2^24" (footer + 16) (u32 (1 lsl 24));
  tamper "n_strs = 2^24" (footer + 20) (u32 (1 lsl 24));
  Sys.remove path

(* A random record of any kind, drawn through the schema: each field
   gets a random value of its type and the kind's entry builds the
   event.  Int fields are mostly narrow, sometimes past 2^32 (the wide
   binary encoding) or -1, and always exact as JSON numbers. *)
let gen_trace_record : (string option * Sim.Trace.record) QCheck.Gen.t =
  let open QCheck.Gen in
  let int = oneofl [ 0; 1; 1448; 0xFFFF_FFFF; 0x1_0000_0000; 0x7F_FFFF_FFFF; -1 ] in
  let fin = float_range (-1e12) 1e12 in
  let event st =
    let e = oneofa Sim.Trace.schema st in
    let v = Sim.Trace.slots () in
    Array.iteri
      (fun k (fd : Sim.Trace.field) ->
        match fd.ty with
        | I64 | Num -> v.i.(k) <- int st
        | F64 -> v.f.(k) <- fin st
        | Bool _ | Ev_bit _ | Fopt _ ->
          v.i.(k) <- int_bound 1 st;
          v.f.(k) <- fin st
        | Str -> v.s.(k) <- string_size ~gen:printable (0 -- 16) st)
      e.fields;
    e.build v
  in
  let* at = 0 -- 2_000_000_000 in
  let* id = oneofl [ "c0"; "s0"; "bare/c0"; "vm/s3@s1"; "" ] in
  let* run = oneofl [ None; Some "off@60k"; Some "r" ] in
  let* event = event in
  return (run, { Sim.Trace.at; id; event })

(* The schema has one entry per constructor, so the generator above
   draws every kind; the golden sample covers them all too. *)
let test_trace_schema_kinds () =
  let kinds = Array.to_list (Array.map (fun (e : Sim.Trace.entry) -> e.kind) Sim.Trace.schema) in
  Alcotest.(check (list int)) "kinds 0..31, once each" (List.init 32 Fun.id)
    (List.sort compare kinds);
  let evs = Array.to_list (Array.map (fun (e : Sim.Trace.entry) -> e.ev) Sim.Trace.schema) in
  Alcotest.(check int) "distinct ev names" 32 (List.length (List.sort_uniq compare evs));
  (* an event's block tag is its constructor's declaration index *)
  let covered = List.sort_uniq compare (List.map (fun ev -> Obj.tag (Obj.repr ev)) trace_every_event) in
  Alcotest.(check (list int)) "golden sample has every constructor" (List.init 32 Fun.id) covered

let prop_trace_binary_roundtrip =
  QCheck.Test.make ~count:100 ~name:"binary trace roundtrips every constructor"
    (QCheck.make (QCheck.Gen.list_size QCheck.Gen.(1 -- 20) gen_trace_record))
    (fun records ->
      let path = Filename.temp_file "e2e_binprop" ".bin" in
      let oc = open_out_bin path in
      let w = Sim.Trace.Binary.writer oc in
      List.iter (fun (run, r) -> Sim.Trace.Binary.write w ?run r) records;
      Sim.Trace.Binary.finish w;
      close_out oc;
      let result = Sim.Trace.Binary.load_file path in
      Sys.remove path;
      match result with Ok loaded -> loaded = records | Error _ -> false)

(* {1 Audit} *)

(* Hand-driven queue where L, lambda and W are computable on paper:
   window [0, 1000 ns]; 1 unit waits 100 ns, then 2 units wait 500 ns
   each.  Occupancy integral = 1*100 + 2*500 = 1100 unit-ns, so
   L = 1.1; lambda = 3 units / 1000 ns; W = 1100/3 ns; lambda*W = 1.1
   exactly — Little's law holds with zero error. *)
let test_audit_exact () =
  let au = Sim.Audit.create () in
  let q = Sim.Audit.queue au "q" in
  Sim.Audit.arrival q ~at:0 1;
  Sim.Audit.departure q ~at:100 1;
  Sim.Audit.arrival q ~at:200 2;
  Sim.Audit.departure q ~at:700 2;
  match Sim.Audit.report au ~at:1000 with
  | [ r ] ->
    Alcotest.(check (float 1e-9)) "L" 1.1 r.l_avg;
    Alcotest.(check (float 1e-3)) "lambda" 3e6 r.lambda_per_s;
    Alcotest.(check (float 1e-9)) "W" (1100.0 /. 3.0 /. 1e3) r.w_us;
    Alcotest.(check int) "arrivals" 3 r.arrivals;
    Alcotest.(check int) "departures" 3 r.departures;
    Alcotest.(check (float 1e-9)) "rel err" 0.0 r.rel_err
  | l -> Alcotest.failf "expected one report, got %d" (List.length l)

let test_audit_fifo_wait () =
  (* FIFO pairing: departures match oldest arrivals, so the first
     departure carries the first arrival's wait even when a later
     arrival is outstanding. *)
  let au = Sim.Audit.create () in
  let q = Sim.Audit.queue au "q" in
  Sim.Audit.track q ~at:0 1;
  Sim.Audit.track q ~at:400 1;
  Sim.Audit.track q ~at:500 (-1);  (* waited 500, not 100 *)
  Sim.Audit.track q ~at:600 (-1);  (* waited 200 *)
  match Sim.Audit.report au ~at:1000 with
  | [ r ] -> Alcotest.(check (float 1e-9)) "W" (350.0 /. 1e3) r.w_us
  | _ -> Alcotest.fail "expected one report"

let test_audit_reset_window () =
  let au = Sim.Audit.create () in
  let q = Sim.Audit.queue au "q" in
  Sim.Audit.arrival q ~at:0 4;
  Sim.Audit.reset_window au ~at:1000;
  (* Carried-over units count toward L but not lambda. *)
  (match Sim.Audit.report au ~at:2000 with
  | [ r ] ->
    Alcotest.(check (float 1e-9)) "L carries occupancy" 4.0 r.l_avg;
    Alcotest.(check int) "arrivals reset" 0 r.arrivals;
    Alcotest.(check int) "occupancy preserved" 4 (Sim.Audit.occupancy q)
  | _ -> Alcotest.fail "expected one report");
  (* get-or-create: same name is the same queue *)
  Alcotest.(check bool) "queue is get-or-create" true
    (Sim.Audit.queue au "q" == q);
  match Sim.Audit.arrival q ~at:0 (-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative arrival must raise"

let test_audit_report_order () =
  let au = Sim.Audit.create () in
  ignore (Sim.Audit.queue au "b");
  ignore (Sim.Audit.queue au "a");
  ignore (Sim.Audit.queue au "b");
  Alcotest.(check (list string)) "registration order, no duplicates"
    [ "b"; "a" ]
    (List.map (fun (r : Sim.Audit.report) -> r.queue)
       (Sim.Audit.report au ~at:100))

(* 10k registrations (the queue count of a few thousand observed
   connections): a repeated name returns the queue already registered,
   and reports keep declaration order. *)
let test_audit_many_queues () =
  let au = Sim.Audit.create () in
  let names = List.init 10_000 (Printf.sprintf "c%d.unacked") in
  let qs = List.map (Sim.Audit.queue au) names in
  List.iter2
    (fun name q ->
      Alcotest.(check bool) "repeated name, same queue" true (Sim.Audit.queue au name == q))
    names qs;
  Alcotest.(check (list string)) "report order = declaration order" names
    (List.map (fun (r : Sim.Audit.report) -> r.queue) (Sim.Audit.report au ~at:100))

(* The guarded call-site pattern used on every hot path must not
   allocate while tracing is disabled: the whole point of leaving the
   instrumentation compiled in. *)
let test_trace_disabled_guard_no_alloc () =
  let tr = Sim.Trace.create () in
  let probe () =
    if Sim.Trace.enabled tr then
      Sim.Trace.event tr ~at:7 ~id:"c0"
        (Sim.Trace.Segment_sent { seq = 1; len = 2; push = true; retx = false })
  in
  probe ();
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    probe ()
  done;
  let per_op = (Gc.minor_words () -. before) /. 10_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "guarded disabled event allocates nothing (%.4f words/op)" per_op)
    true (per_op < 0.01)

let prop_trace_json_roundtrip =
  QCheck.Test.make ~count:300 ~name:"trace JSONL roundtrips exactly"
    (QCheck.make gen_trace_record) (fun (run, r) ->
      Sim.Trace.record_of_json (Sim.Trace.record_to_json ?run r) = Ok (run, r))

let suite =
  [
    ( "sim.time",
      [
        Alcotest.test_case "units" `Quick test_time_units;
        Alcotest.test_case "arithmetic" `Quick test_time_arith;
        Alcotest.test_case "pretty-printing" `Quick test_time_pp;
      ] );
    ( "sim.event_heap",
      [
        Alcotest.test_case "order and sentinel" `Quick
          test_event_heap_order_and_sentinel;
        Alcotest.test_case "take releases action" `Quick
          test_event_heap_take_releases_action;
        Alcotest.test_case "clear releases actions" `Quick
          test_event_heap_clear_releases_actions;
        QCheck_alcotest.to_alcotest prop_event_heap_model;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "time ordering" `Quick test_engine_ordering;
        Alcotest.test_case "FIFO tie-break" `Quick test_engine_fifo_ties;
        Alcotest.test_case "cancel" `Quick test_engine_cancel;
        Alcotest.test_case "cancel releases the event" `Quick test_engine_cancel_releases;
        Alcotest.test_case "cancel after slot reuse" `Quick test_engine_cancel_after_slot_reuse;
        Alcotest.test_case "fresh foreign handle" `Quick test_engine_fresh_foreign_handle;
        Alcotest.test_case "post releases the event" `Quick test_engine_post_releases;
        QCheck_alcotest.to_alcotest prop_engine_model;
        Alcotest.test_case "schedule from callback" `Quick test_engine_schedule_from_callback;
        Alcotest.test_case "run_until" `Quick test_engine_run_until;
        Alcotest.test_case "negative delay rejected" `Quick test_engine_negative_delay;
        Alcotest.test_case "past schedule rejected" `Quick test_engine_past_schedule_at;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic from seed" `Quick test_rng_deterministic;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "sequence pinned" `Quick test_rng_sequence_pinned;
        Alcotest.test_case "float in [0,1)" `Quick test_rng_float_range;
        Alcotest.test_case "int in bounds" `Quick test_rng_int_range;
        Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
        Alcotest.test_case "normal moments" `Slow test_rng_normal_moments;
        Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
        Alcotest.test_case "zipf uniform at theta=0" `Quick test_rng_zipf_uniform_theta0;
        Alcotest.test_case "pareto respects scale" `Quick test_rng_pareto_min;
      ] );
    ( "sim.stats",
      [
        Alcotest.test_case "summary moments" `Quick test_summary_moments;
        Alcotest.test_case "summary empty" `Quick test_summary_empty;
        Alcotest.test_case "summary merge" `Quick test_summary_merge;
        Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
        Alcotest.test_case "histogram empty/clamp" `Quick test_histogram_empty_and_clamp;
        Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
        QCheck_alcotest.to_alcotest prop_histogram_percentile_bounds;
        Alcotest.test_case "P2 exact below 5 samples" `Quick test_p2_exact_for_few_samples;
        Alcotest.test_case "P2 median (uniform)" `Slow test_p2_median_uniform;
        Alcotest.test_case "P2 p99 (exponential)" `Slow test_p2_p99_exponential;
        Alcotest.test_case "P2 rejects bad q" `Quick test_p2_invalid_q;
        QCheck_alcotest.to_alcotest prop_p2_close_to_exact;
        Alcotest.test_case "time-avg paper example" `Quick test_time_avg;
        Alcotest.test_case "time-avg rejects backwards" `Quick test_time_avg_backwards;
      ] );
    ( "sim.histo",
      [
        Alcotest.test_case "empty and reset" `Quick test_histo_empty;
        Alcotest.test_case "single-value bucket bounds" `Quick
          test_histo_single_value_bounds;
        Alcotest.test_case "sub-1 values clamp" `Quick test_histo_sub_one_clamps;
        Alcotest.test_case "merge is exact" `Quick test_histo_merge_exact;
        QCheck_alcotest.to_alcotest prop_histo_quantile_close_to_exact;
      ] );
    ( "sim.cpu",
      [
        Alcotest.test_case "FIFO and busy accounting" `Quick test_cpu_fifo_and_busy;
        Alcotest.test_case "idle gap" `Quick test_cpu_idle_gap;
      ] );
    ( "sim.trace",
      [
        Alcotest.test_case "disabled by default" `Quick test_trace_disabled_by_default;
        Alcotest.test_case "capture and find" `Quick test_trace_capture_and_find;
        Alcotest.test_case "ring overwrite" `Quick test_trace_ring_overwrite;
        Alcotest.test_case "emitf disabled: no side effects" `Quick
          test_trace_emitf_disabled_no_side_effects;
        Alcotest.test_case "typed events and tags" `Quick test_trace_typed_events;
        Alcotest.test_case "iter/fold match records" `Quick
          test_trace_iter_fold_match_records;
        Alcotest.test_case "JSONL roundtrip" `Quick test_trace_json_roundtrip;
        Alcotest.test_case "JSONL malformed input" `Quick test_trace_json_malformed;
        Alcotest.test_case "JSONL numbers are strict" `Quick test_trace_json_strict_numbers;
        Alcotest.test_case "JSONL reads a non-finite float back exactly" `Quick
          test_trace_json_nonfinite_float;
        Alcotest.test_case "load_jsonl file handling" `Quick test_trace_load_jsonl;
        Alcotest.test_case "fold_jsonl streams with line numbers" `Quick
          test_trace_fold_jsonl;
        Alcotest.test_case "binary roundtrip (every constructor)" `Quick
          test_trace_binary_roundtrip;
        Alcotest.test_case "schema: one entry per kind" `Quick test_trace_schema_kinds;
        Alcotest.test_case "golden JSONL and binary bytes" `Quick test_trace_golden;
        Alcotest.test_case "binary reader rejects tampered counts" `Quick
          test_trace_binary_tampered_counts;
        Alcotest.test_case "binary sniff negatives" `Quick
          test_trace_binary_sniff_negative;
        Alcotest.test_case "guarded disabled path: no alloc" `Quick
          test_trace_disabled_guard_no_alloc;
        QCheck_alcotest.to_alcotest prop_trace_json_roundtrip;
        QCheck_alcotest.to_alcotest prop_trace_binary_roundtrip;
      ] );
    ( "sim.audit",
      [
        Alcotest.test_case "little's law exact" `Quick test_audit_exact;
        Alcotest.test_case "FIFO wait pairing" `Quick test_audit_fifo_wait;
        Alcotest.test_case "window reset carries occupancy" `Quick
          test_audit_reset_window;
        Alcotest.test_case "report order and dedup" `Quick test_audit_report_order;
        Alcotest.test_case "10k queues: dedup and order" `Quick test_audit_many_queues;
      ] );
  ]
