(* Tests for TCP building blocks: sequence arithmetic, byte buffers,
   unit translation, options codec, Nagle, delayed acks, links and
   GRO. *)

let us = Sim.Time.us

(* {1 Seq32} *)

let test_seq32_wrap_add () =
  let near_max = Tcp.Seq32.of_int 0xFFFF_FFFE in
  let wrapped = Tcp.Seq32.add near_max 5 in
  Alcotest.(check int) "wraps" 3 (Tcp.Seq32.to_int wrapped);
  Alcotest.(check int) "distance across wrap" 5 (Tcp.Seq32.sub wrapped near_max)

let test_seq32_serial_compare () =
  let a = Tcp.Seq32.of_int 0xFFFF_FF00 in
  let b = Tcp.Seq32.add a 0x200 in
  Alcotest.(check bool) "a < b across wrap" true (Tcp.Seq32.lt a b);
  Alcotest.(check bool) "b > a" false (Tcp.Seq32.lt b a);
  Alcotest.(check bool) "leq self" true (Tcp.Seq32.leq a a)

let test_seq32_between () =
  let low = Tcp.Seq32.of_int 0xFFFF_FFF0 in
  let high = Tcp.Seq32.add low 0x20 in
  let x = Tcp.Seq32.add low 0x10 in
  Alcotest.(check bool) "in window across wrap" true
    (Tcp.Seq32.between x ~low ~high);
  Alcotest.(check bool) "low included" true (Tcp.Seq32.between low ~low ~high);
  Alcotest.(check bool) "high excluded" false (Tcp.Seq32.between high ~low ~high)

let prop_seq32_sub_add =
  QCheck.Test.make ~name:"seq32 add/sub inverse" ~count:300
    QCheck.(pair (int_bound 0xFFFF_FFFF) (int_bound 0xFFFF))
    (fun (base, n) ->
      let a = Tcp.Seq32.of_int base in
      Tcp.Seq32.sub (Tcp.Seq32.add a n) a = n)

(* {1 Bytebuf} *)

let test_bytebuf_fifo () =
  let b = Tcp.Bytebuf.create () in
  Tcp.Bytebuf.append b "hello ";
  Tcp.Bytebuf.append b "world";
  Alcotest.(check int) "length" 11 (Tcp.Bytebuf.length b);
  Alcotest.(check string) "read across chunks" "hello wo" (Tcp.Bytebuf.read b 8);
  Alcotest.(check string) "remainder" "rld" (Tcp.Bytebuf.read_all b);
  Alcotest.(check bool) "empty" true (Tcp.Bytebuf.is_empty b)

let test_bytebuf_peek_drop () =
  let b = Tcp.Bytebuf.create () in
  Tcp.Bytebuf.append b "abcdef";
  Alcotest.(check string) "peek" "abc" (Tcp.Bytebuf.peek b 3);
  Alcotest.(check int) "peek non-consuming" 6 (Tcp.Bytebuf.length b);
  Alcotest.(check int) "drop" 2 (Tcp.Bytebuf.drop b 2);
  Alcotest.(check string) "after drop" "cdef" (Tcp.Bytebuf.read_all b)

let test_bytebuf_conservation () =
  let b = Tcp.Bytebuf.create () in
  Tcp.Bytebuf.append b "xyz";
  ignore (Tcp.Bytebuf.read b 2);
  Alcotest.(check int) "appended" 3 (Tcp.Bytebuf.total_appended b);
  Alcotest.(check int) "consumed" 2 (Tcp.Bytebuf.total_consumed b);
  Alcotest.(check int) "conservation" (Tcp.Bytebuf.total_appended b)
    (Tcp.Bytebuf.total_consumed b + Tcp.Bytebuf.length b)

let prop_bytebuf_roundtrip =
  QCheck.Test.make ~name:"bytebuf preserves the byte stream" ~count:200
    QCheck.(list (string_of_size Gen.(0 -- 50)))
    (fun chunks ->
      let b = Tcp.Bytebuf.create () in
      List.iter (Tcp.Bytebuf.append b) chunks;
      let expected = String.concat "" chunks in
      let out = Buffer.create 64 in
      while not (Tcp.Bytebuf.is_empty b) do
        Buffer.add_string out (Tcp.Bytebuf.read b 7)
      done;
      String.equal (Buffer.contents out) expected)

(* Every operation against a plain-string model: the buffer under test
   plus a second buffer that [transfer] moves bytes into.  Lengths run
   from 0 so zero-length operations on an empty buffer are exercised
   from the first step. *)
type bytebuf_op =
  | Append of string
  | Append_slice of string * int * int
  | Take of int
  | Skip of int
  | Transfer of int
  | Read of int
  | Peek of int
  | Drop of int
  | Cells

let show_bytebuf_op = function
  | Append s -> Printf.sprintf "append %S" s
  | Append_slice (s, off, len) -> Printf.sprintf "append_slice %S %d %d" s off len
  | Take n -> Printf.sprintf "take %d" n
  | Skip n -> Printf.sprintf "skip %d" n
  | Transfer n -> Printf.sprintf "transfer %d" n
  | Read n -> Printf.sprintf "read %d" n
  | Peek n -> Printf.sprintf "peek %d" n
  | Drop n -> Printf.sprintf "drop %d" n
  | Cells -> "cells"

let bytebuf_op_gen =
  QCheck.Gen.(
    let n = int_range 0 20 in
    let str = string_size ~gen:printable (int_range 0 12) in
    frequency
      [
        (3, map (fun s -> Append s) str);
        ( 2,
          map3
            (fun s off len ->
              let off = min off (String.length s) in
              Append_slice (s, off, min len (String.length s - off)))
            str (int_range 0 12) (int_range 0 12) );
        (2, map (fun k -> Take k) n);
        (1, map (fun k -> Skip k) n);
        (2, map (fun k -> Transfer k) n);
        (2, map (fun k -> Read k) n);
        (1, map (fun k -> Peek k) n);
        (1, map (fun k -> Drop k) n);
        (2, return Cells);
      ])

let views_to_string views = String.concat "" (List.map Tcp.Slice.to_string views)

let prop_bytebuf_matches_model =
  QCheck.Test.make ~name:"bytebuf matches a string model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_bytebuf_op ops))
       QCheck.Gen.(list_size (int_range 0 40) bytebuf_op_gen))
    (fun ops ->
      let b = Tcp.Bytebuf.create () and dst = Tcp.Bytebuf.create () in
      let model = ref "" and dst_model = Buffer.create 64 in
      (* remove [min k len] bytes from the model and return them *)
      let cut k =
        let k = max 0 (min k (String.length !model)) in
        let head = String.sub !model 0 k in
        model := String.sub !model k (String.length !model - k);
        head
      in
      let step op =
        match op with
        | Append s ->
          Tcp.Bytebuf.append b s;
          model := !model ^ s;
          true
        | Append_slice (s, off, len) ->
          Tcp.Bytebuf.append_slice b (Tcp.Slice.sub (Tcp.Slice.of_string s) off len);
          model := !model ^ String.sub s off len;
          true
        | Take k -> String.equal (views_to_string (Tcp.Bytebuf.take b k)) (cut k)
        | Skip k ->
          Tcp.Bytebuf.skip b k;
          ignore (cut k);
          true
        | Transfer k ->
          let moved = Tcp.Bytebuf.transfer b ~dst k in
          let head = cut k in
          Buffer.add_string dst_model head;
          moved = String.length head
        | Read k -> String.equal (Tcp.Bytebuf.read b k) (cut k)
        | Peek k ->
          String.equal (Tcp.Bytebuf.peek b k)
            (String.sub !model 0 (min k (String.length !model)))
        | Drop k -> Tcp.Bytebuf.drop b k = String.length (cut k)
        | Cells ->
          (* non-empty slices that, past the head offset, are the model *)
          let rec slices = function
            | Tcp.Bytebuf.Nil -> []
            | Tcp.Bytebuf.Cons { s; next } -> s :: slices next
          in
          let ss = slices (Tcp.Bytebuf.cells b) in
          let all = String.concat "" (List.map Tcp.Slice.to_string ss) in
          let off = Tcp.Bytebuf.head_offset b in
          List.for_all (fun s -> Tcp.Slice.length s > 0) ss
          && String.length all >= off
          && String.equal (String.sub all off (String.length all - off)) !model
      in
      let conserved t = Tcp.Bytebuf.total_appended t - Tcp.Bytebuf.total_consumed t = Tcp.Bytebuf.length t in
      List.for_all
        (fun op ->
          step op
          && Tcp.Bytebuf.length b = String.length !model
          && Tcp.Bytebuf.is_empty b = (!model = "")
          && conserved b && conserved dst)
        ops
      &&
      let whole = Bytes.make (String.length !model) '?' in
      Tcp.Bytebuf.blit b ~src_off:0 whole ~dst_off:0 ~len:(Bytes.length whole);
      String.equal (Bytes.to_string whole) !model
      && String.equal (Tcp.Bytebuf.read_all dst) (Buffer.contents dst_model))

(* [take] and [take_front] hand out views, never copies: whatever the
   mix of whole strings and sub-slices appended, the views' bytes are
   the model's and each view's base is one of the appended strings. *)
type take_op = Put of string | Put_sub of string * int * int | Take_n of int | Front of int

let show_take_op = function
  | Put s -> Printf.sprintf "put %S" s
  | Put_sub (s, off, len) -> Printf.sprintf "put_sub %S %d %d" s off len
  | Take_n n -> Printf.sprintf "take %d" n
  | Front n -> Printf.sprintf "front %d" n

let take_op_gen =
  QCheck.Gen.(
    let str = string_size ~gen:printable (int_range 1 12) in
    frequency
      [
        (3, map (fun s -> Put s) str);
        ( 2,
          map3
            (fun s off len ->
              let off = min off (String.length s) in
              Put_sub (s, off, min len (String.length s - off)))
            str (int_range 0 12) (int_range 0 12) );
        (3, map (fun n -> Take_n n) (int_range 0 30));
        (2, map (fun n -> Front n) (int_range 0 30));
      ])

let prop_bytebuf_take_views =
  QCheck.Test.make ~name:"bytebuf take returns views of the appended strings" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_take_op ops))
       QCheck.Gen.(list_size (int_range 0 40) take_op_gen))
    (fun ops ->
      let b = Tcp.Bytebuf.create () in
      let model = ref "" and bases = ref [] in
      let cut k =
        let k = max 0 (min k (String.length !model)) in
        let head = String.sub !model 0 k in
        model := String.sub !model k (String.length !model - k);
        head
      in
      let appended (v : Tcp.Slice.t) = List.memq v.base !bases in
      List.for_all
        (fun op ->
          match op with
          | Put s ->
            Tcp.Bytebuf.append b s;
            bases := s :: !bases;
            model := !model ^ s;
            true
          | Put_sub (s, off, len) ->
            Tcp.Bytebuf.append_slice b (Tcp.Slice.sub (Tcp.Slice.of_string s) off len);
            bases := s :: !bases;
            model := !model ^ String.sub s off len;
            true
          | Take_n n ->
            let views = Tcp.Bytebuf.take b n in
            String.equal (views_to_string views) (cut n)
            && List.for_all (fun v -> Tcp.Slice.length v > 0 && appended v) views
          | Front n ->
            let before = String.length !model in
            let v = Tcp.Bytebuf.take_front b n in
            let k = Tcp.Slice.length v in
            String.equal (Tcp.Slice.to_string v) (cut k)
            && k <= n
            && (k > 0 || n = 0 || before = 0)
            && (k = 0 || appended v))
        ops
      && Tcp.Bytebuf.length b = String.length !model)

(* A ring-based variant once spun forever on a zero-length read of an
   empty buffer. *)
let test_bytebuf_zero_length_on_empty () =
  let b = Tcp.Bytebuf.create () and dst = Tcp.Bytebuf.create () in
  Alcotest.(check int) "take 0" 0 (List.length (Tcp.Bytebuf.take b 0));
  Alcotest.(check int) "take 5" 0 (List.length (Tcp.Bytebuf.take b 5));
  Tcp.Bytebuf.skip b 0;
  Tcp.Bytebuf.skip b 3;
  Alcotest.(check int) "transfer 0" 0 (Tcp.Bytebuf.transfer b ~dst 0);
  Alcotest.(check int) "transfer 4" 0 (Tcp.Bytebuf.transfer b ~dst 4);
  Alcotest.(check string) "read 0" "" (Tcp.Bytebuf.read b 0);
  Alcotest.(check string) "read 9" "" (Tcp.Bytebuf.read_all b);
  Alcotest.(check string) "peek 0" "" (Tcp.Bytebuf.peek b 0);
  Alcotest.(check int) "drop 0" 0 (Tcp.Bytebuf.drop b 0);
  Tcp.Bytebuf.append b "";
  Tcp.Bytebuf.append_slice b Tcp.Slice.empty;
  Alcotest.(check bool) "still empty" true (Tcp.Bytebuf.is_empty b && Tcp.Bytebuf.is_empty dst)

(* A prefix inside one slice comes out as a view of the appended
   string, not a copy; a whole-chunk read hands back the string
   itself. *)
let test_bytebuf_take_shares () =
  let s = String.make 100 'a' in
  let b = Tcp.Bytebuf.create () in
  Tcp.Bytebuf.append b s;
  let v = Tcp.Bytebuf.take b 40 in
  Alcotest.(check bool) "view of the appended string" true
    (match v with [ v ] -> v.Tcp.Slice.base == s | _ -> false);
  Tcp.Bytebuf.append b s;
  Tcp.Bytebuf.skip b 60;
  Alcotest.(check bool) "whole chunk read is the string" true (Tcp.Bytebuf.read b 100 == s)

(* {1 Unit_fifo} *)

let test_unit_fifo_bytes_identity () =
  let f = Tcp.Unit_fifo.create () in
  Tcp.Unit_fifo.push f ~bytes:100 ~units:100;
  Alcotest.(check int) "drain 30" 30 (Tcp.Unit_fifo.drain f ~bytes:30);
  Alcotest.(check int) "drain 70" 70 (Tcp.Unit_fifo.drain f ~bytes:70)

let test_unit_fifo_syscall_units () =
  let f = Tcp.Unit_fifo.create () in
  (* two send() calls of 100 bytes, one unit each *)
  Tcp.Unit_fifo.push f ~bytes:100 ~units:1;
  Tcp.Unit_fifo.push f ~bytes:100 ~units:1;
  Alcotest.(check int) "partial drain credits nothing" 0
    (Tcp.Unit_fifo.drain f ~bytes:99);
  Alcotest.(check int) "boundary credits one" 1 (Tcp.Unit_fifo.drain f ~bytes:1);
  Alcotest.(check int) "crossing both" 1 (Tcp.Unit_fifo.drain f ~bytes:100)

let test_unit_fifo_spanning_drain () =
  let f = Tcp.Unit_fifo.create () in
  Tcp.Unit_fifo.push f ~bytes:10 ~units:1;
  Tcp.Unit_fifo.push f ~bytes:10 ~units:1;
  Tcp.Unit_fifo.push f ~bytes:10 ~units:1;
  Alcotest.(check int) "drain 25 credits 2" 2 (Tcp.Unit_fifo.drain f ~bytes:25);
  Alcotest.(check int) "pending" 5 (Tcp.Unit_fifo.pending_bytes f);
  Alcotest.(check int) "one unit left" 1 (Tcp.Unit_fifo.pending_units f)

let test_unit_fifo_overdrain_rejected () =
  let f = Tcp.Unit_fifo.create () in
  Tcp.Unit_fifo.push f ~bytes:5 ~units:1;
  Alcotest.check_raises "overdrain"
    (Invalid_argument "Unit_fifo.drain: draining unpushed bytes") (fun () ->
      ignore (Tcp.Unit_fifo.drain f ~bytes:6))

let prop_unit_fifo_conserves_units =
  QCheck.Test.make ~name:"unit fifo conserves units" ~count:200
    QCheck.(list_of_size Gen.(1 -- 30) (pair (int_range 1 50) (int_range 0 5)))
    (fun pushes ->
      let f = Tcp.Unit_fifo.create () in
      let total_bytes = List.fold_left (fun a (b, _) -> a + b) 0 pushes in
      let total_units = List.fold_left (fun a (_, u) -> a + u) 0 pushes in
      List.iter (fun (bytes, units) -> Tcp.Unit_fifo.push f ~bytes ~units) pushes;
      (* drain in chunks of 7 *)
      let credited = ref 0 in
      let left = ref total_bytes in
      while !left > 0 do
        let n = min 7 !left in
        credited := !credited + Tcp.Unit_fifo.drain f ~bytes:n;
        left := !left - n
      done;
      !credited = total_units && Tcp.Unit_fifo.pending_units f = 0)

(* The same translation over a [Stdlib.Queue] of entries: the model
   that [Unit_fifo]'s hand-rolled list is checked against. *)
module Unit_fifo_model = struct
  type entry = { total : int; units : int; mutable drained : int; mutable credited : int }

  let create () = Queue.create ()

  let push q ~bytes ~units =
    if bytes > 0 || units > 0 then Queue.add { total = bytes; units; drained = 0; credited = 0 } q

  let finish e =
    let earned = if e.total = 0 then e.units else e.units * e.drained / e.total in
    let fresh = earned - e.credited in
    e.credited <- earned;
    fresh

  let rec pop_exhausted q acc =
    match Queue.peek_opt q with
    | Some e when e.total - e.drained = 0 ->
      e.drained <- e.total;
      let acc = acc + finish e in
      ignore (Queue.pop q);
      pop_exhausted q acc
    | Some _ | None -> acc

  let drain q ~bytes =
    let acc = ref (pop_exhausted q 0) and left = ref bytes in
    while !left > 0 do
      let e = Queue.peek q in
      let take = min (e.total - e.drained) !left in
      e.drained <- e.drained + take;
      left := !left - take;
      acc := !acc + finish e;
      if e.drained = e.total then ignore (Queue.pop q);
      acc := pop_exhausted q !acc
    done;
    !acc

  let pending_bytes q = Queue.fold (fun a e -> a + e.total - e.drained) 0 q
  let pending_units q = Queue.fold (fun a e -> a + e.units - e.credited) 0 q
end

(* Random pushes (zero-byte entries among them) and drains of part of
   what is pending: every drain credits what the model does, and the
   pending bytes and units agree after every step. *)
let prop_unit_fifo_matches_queue_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun b u -> `Push (b, u)) (oneof [ return 0; int_range 1 40 ]) (int_range 0 4));
          (2, map (fun frac -> `Drain frac) (float_bound_inclusive 1.0));
        ])
  in
  QCheck.Test.make ~name:"unit fifo matches a Stdlib.Queue model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (1 -- 60) op))
    (fun ops ->
      let f = Tcp.Unit_fifo.create () and m = Unit_fifo_model.create () in
      List.for_all
        (fun op ->
          let same_credit =
            match op with
            | `Push (bytes, units) ->
              Tcp.Unit_fifo.push f ~bytes ~units;
              Unit_fifo_model.push m ~bytes ~units;
              true
            | `Drain frac ->
              let bytes =
                int_of_float (frac *. float_of_int (Tcp.Unit_fifo.pending_bytes f))
              in
              Tcp.Unit_fifo.drain f ~bytes = Unit_fifo_model.drain m ~bytes
          in
          same_credit
          && Tcp.Unit_fifo.pending_bytes f = Unit_fifo_model.pending_bytes m
          && Tcp.Unit_fifo.pending_units f = Unit_fifo_model.pending_units m)
        ops)

(* {1 Options codec} *)

let sample_triple : E2e.Exchange.triple =
  let s time total integral : E2e.Queue_state.share = { time; total; integral } in
  { unacked = s (us 10) 1 2e3; unread = s (us 10) 3 4e3; ackdelay = s (us 10) 5 6e3 }

let test_options_roundtrip () =
  let opts = [ Tcp.Options.Mss 1448; Tcp.Options.E2e_state sample_triple ] in
  (* E2E option is 40 bytes alone; encode separately *)
  let enc = Tcp.Options.encode [ List.hd opts ] in
  (match Tcp.Options.decode enc with
  | Ok [ Tcp.Options.Mss 1448 ] -> ()
  | Ok _ -> Alcotest.fail "wrong decode"
  | Error e -> Alcotest.fail e);
  let enc2 = Tcp.Options.encode [ Tcp.Options.E2e_state sample_triple ] in
  Alcotest.(check int) "e2e option exactly fills option space" 40 (String.length enc2);
  match Tcp.Options.decode enc2 with
  | Ok opts2 -> (
    match Tcp.Options.find_e2e opts2 with
    | Some t ->
      Alcotest.(check int) "total survives" 1 t.unacked.total;
      Alcotest.(check int) "unread total survives" 3 t.unread.total
    | None -> Alcotest.fail "e2e option lost")
  | Error e -> Alcotest.fail e

let test_options_padding_alignment () =
  let enc = Tcp.Options.encode [ Tcp.Options.Window_scale 7 ] in
  Alcotest.(check int) "padded to 4" 0 (String.length enc mod 4)

let test_options_timestamp () =
  let enc = Tcp.Options.encode [ Tcp.Options.Timestamp { value = 123456; echo = 654321 } ] in
  match Tcp.Options.decode enc with
  | Ok l -> (
    match List.find_opt (function Tcp.Options.Timestamp _ -> true | _ -> false) l with
    | Some (Tcp.Options.Timestamp { value; echo }) ->
      Alcotest.(check int) "value" 123456 value;
      Alcotest.(check int) "echo" 654321 echo
    | _ -> Alcotest.fail "timestamp lost")
  | Error e -> Alcotest.fail e

let test_options_unknown_preserved () =
  let enc = Tcp.Options.encode [ Tcp.Options.Unknown { kind = 99; data = "ab" } ] in
  match Tcp.Options.decode enc with
  | Ok l -> (
    match List.find_opt (function Tcp.Options.Unknown _ -> true | _ -> false) l with
    | Some (Tcp.Options.Unknown { kind; data }) ->
      Alcotest.(check int) "kind" 99 kind;
      Alcotest.(check string) "data" "ab" data
    | _ -> Alcotest.fail "unknown lost")
  | Error e -> Alcotest.fail e

let test_options_truncated_rejected () =
  match Tcp.Options.decode "\002" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated option"

let test_options_overflow_rejected () =
  Alcotest.check_raises "overflow"
    (Invalid_argument "Options.encode: block exceeds 40-byte TCP option space")
    (fun () ->
      ignore
        (Tcp.Options.encode
           [ Tcp.Options.E2e_state sample_triple; Tcp.Options.Mss 1448 ]))

(* {1 Nagle} *)

let nagle ?(min_send = -1) ~enabled ~chunk ~in_flight () =
  Tcp.Nagle.should_send ~enabled ~min_send ~mss:1448 ~chunk ~in_flight

let test_nagle_full_segment_always_sends () =
  Alcotest.(check bool) "full MSS" true (nagle ~enabled:true ~chunk:1448 ~in_flight:9999 ())

let test_nagle_holds_small_with_inflight () =
  Alcotest.(check bool) "held" false (nagle ~enabled:true ~chunk:100 ~in_flight:1448 ())

let test_nagle_sends_small_when_idle () =
  Alcotest.(check bool) "idle sends" true (nagle ~enabled:true ~chunk:100 ~in_flight:0 ())

let test_nagle_disabled_always_sends () =
  Alcotest.(check bool) "nodelay" true (nagle ~enabled:false ~chunk:1 ~in_flight:9999 ())

let test_nagle_toggle_counting () =
  let s = Tcp.Socket.create (Sim.Engine.create ()) Tcp.Socket.default_config in
  Tcp.Socket.set_nagle_enabled s true;
  Alcotest.(check int) "no-op toggle not counted" 0 (Tcp.Socket.nagle_toggles s);
  Tcp.Socket.set_nagle_enabled s false;
  Tcp.Socket.set_nagle_enabled s true;
  Alcotest.(check int) "two real toggles" 2 (Tcp.Socket.nagle_toggles s)

let test_nagle_min_send_threshold () =
  Alcotest.(check bool) "above threshold releases" true
    (nagle ~min_send:512 ~enabled:true ~chunk:600 ~in_flight:1448 ());
  Alcotest.(check bool) "below threshold holds" false
    (nagle ~min_send:512 ~enabled:true ~chunk:400 ~in_flight:1448 ());
  Alcotest.(check bool) "back to RFC896" false
    (nagle ~enabled:true ~chunk:600 ~in_flight:1448 ())

let test_nagle_zero_chunk () =
  Alcotest.(check bool) "nothing to send" false (nagle ~enabled:false ~chunk:0 ~in_flight:0 ())

(* {1 Delayed_ack} *)

let test_delack_count_trigger () =
  let e = Sim.Engine.create () in
  let acks = ref 0 in
  let d = ref None in
  let da =
    Tcp.Delayed_ack.create e ~timeout:(Sim.Time.ms 40) ~max_pending:2
      ~send_ack:(fun () ->
        incr acks;
        Option.iter Tcp.Delayed_ack.on_ack_sent !d)
      ()
  in
  d := Some da;
  Tcp.Delayed_ack.on_data_segment da;
  Alcotest.(check int) "first segment delays" 0 !acks;
  Alcotest.(check bool) "timer armed" true (Tcp.Delayed_ack.timer_armed da);
  Tcp.Delayed_ack.on_data_segment da;
  Alcotest.(check int) "second forces ack" 1 !acks;
  Alcotest.(check int) "count stat" 1 (Tcp.Delayed_ack.acks_forced_by_count da)

let test_delack_timer_trigger () =
  let e = Sim.Engine.create () in
  let acks = ref [] in
  let d = ref None in
  let da =
    Tcp.Delayed_ack.create e ~timeout:(Sim.Time.ms 40) ~max_pending:2
      ~send_ack:(fun () ->
        acks := Sim.Engine.now e :: !acks;
        Option.iter Tcp.Delayed_ack.on_ack_sent !d)
      ()
  in
  d := Some da;
  Tcp.Delayed_ack.on_data_segment da;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fired at 40ms" [ Sim.Time.ms 40 ] !acks;
  Alcotest.(check int) "timer stat" 1 (Tcp.Delayed_ack.acks_forced_by_timer da)

let test_delack_piggyback_cancels_timer () =
  let e = Sim.Engine.create () in
  let acks = ref 0 in
  let da =
    Tcp.Delayed_ack.create e ~timeout:(Sim.Time.ms 40) ~max_pending:2
      ~send_ack:(fun () -> incr acks)
      ()
  in
  Tcp.Delayed_ack.on_data_segment da;
  (* data goes out carrying the ack before the timer fires *)
  Tcp.Delayed_ack.on_ack_sent da;
  Sim.Engine.run e;
  Alcotest.(check int) "no pure ack" 0 !acks;
  Alcotest.(check bool) "timer disarmed" false (Tcp.Delayed_ack.timer_armed da)

(* {1 Link} *)

let test_link_serialization_and_prop () =
  let e = Sim.Engine.create () in
  let link = Tcp.Link.create e ~prop_delay:(us 10) ~gbit_per_s:1.0 in
  let arrivals = ref [] in
  (* 1000 bytes at 1 Gbit/s = 8000 ns of serialization. *)
  let arrive e () = arrivals := Sim.Engine.now e :: !arrivals in
  Tcp.Link.send link ~seq:(-1) ~wire_bytes:1000 arrive e ();
  Tcp.Link.send link ~seq:(-1) ~wire_bytes:1000 arrive e ();
  Sim.Engine.run e;
  Alcotest.(check (list int)) "FIFO with serialization"
    [ 8_000 + us 10; 16_000 + us 10 ]
    (List.rev !arrivals);
  Alcotest.(check int) "packets" 2 (Tcp.Link.packets link);
  Alcotest.(check int) "bytes" 2000 (Tcp.Link.bytes link);
  Alcotest.(check int) "tx busy" 16_000 (Tcp.Link.tx_busy_ns link)

let test_link_busy () =
  let e = Sim.Engine.create () in
  let link = Tcp.Link.create e ~prop_delay:0 ~gbit_per_s:1.0 in
  Alcotest.(check bool) "idle" false (Tcp.Link.busy link);
  Tcp.Link.send link ~seq:(-1) ~wire_bytes:10_000 (fun () () -> ()) () ();
  Alcotest.(check bool) "busy while serializing" true (Tcp.Link.busy link)

(* {1 Gro} *)

let seg ?(len = 1448) seq : Tcp.Segment.t =
  Tcp.Segment.make ~payload:(String.make len 'x') ~seq ~ack:0 ~window:65536 ()

let make_gro e ?(enabled = true) ?(timeout = us 12) () =
  let batches = ref [] in
  let gro =
    Tcp.Gro.create e
      { enabled; max_bytes = 64 * 1024; flush_timeout = timeout; mss = 1448 }
      ~rx:batches ~deliver:(fun batches b -> batches := List.length b :: !batches)
  in
  (gro, batches)

let test_gro_merges_full_segments () =
  let e = Sim.Engine.create () in
  let gro, batches = make_gro e () in
  for i = 0 to 9 do
    Tcp.Gro.submit gro (seg (i * 1448))
  done;
  Sim.Engine.run e;
  (* nothing flushed until the idle timeout *)
  Alcotest.(check (list int)) "one batch of 10" [ 10 ] !batches;
  Alcotest.(check (float 1e-9)) "merge ratio" 10.0 (Tcp.Gro.merge_ratio gro)

let test_gro_small_segment_flushes () =
  let e = Sim.Engine.create () in
  let gro, batches = make_gro e () in
  Tcp.Gro.submit gro (seg 0);
  Tcp.Gro.submit gro (seg ~len:100 1448);
  Alcotest.(check (list int)) "tail flushes immediately" [ 2 ] !batches

let test_gro_cap_splits () =
  let e = Sim.Engine.create () in
  let gro, batches = make_gro e () in
  (* 64KiB / 1448 = 45.2: the 46th segment must start a new batch *)
  for i = 0 to 45 do
    Tcp.Gro.submit gro (seg (i * 1448))
  done;
  Tcp.Gro.flush gro;
  Alcotest.(check (list int)) "split at cap" [ 1; 45 ] !batches

let test_gro_timeout_flush () =
  let e = Sim.Engine.create () in
  let gro, batches = make_gro e ~timeout:(us 5) () in
  Tcp.Gro.submit gro (seg 0);
  Alcotest.(check int) "held" 1 (Tcp.Gro.pending gro);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "flushed by timer" [ 1 ] !batches;
  Alcotest.(check int) "fired at timeout" (us 5) (Sim.Engine.now e)

let test_gro_disabled_passthrough () =
  let e = Sim.Engine.create () in
  let gro, batches = make_gro e ~enabled:false () in
  Tcp.Gro.submit gro (seg 0);
  Tcp.Gro.submit gro (seg 1448);
  Alcotest.(check (list int)) "two singleton batches" [ 1; 1 ] !batches

let test_gro_preserves_order () =
  let e = Sim.Engine.create () in
  let segs = ref [] in
  let gro =
    Tcp.Gro.create e
      { enabled = true; max_bytes = 64 * 1024; flush_timeout = us 5; mss = 1448 }
      ~rx:segs
      ~deliver:(fun segs b -> List.iter (fun (s : Tcp.Segment.t) -> segs := s.seq :: !segs) b)
  in
  Tcp.Gro.submit gro (seg 0);
  Tcp.Gro.submit gro (seg 1448);
  Tcp.Gro.submit gro (seg ~len:10 2896);
  Alcotest.(check (list int)) "in-order delivery" [ 0; 1448; 2896 ] (List.rev !segs)

(* {1 Rtt} *)

let test_rtt_first_sample () =
  let r = Tcp.Rtt.create () in
  Alcotest.(check int) "initial RTO 1s" (Sim.Time.sec 1) (Tcp.Rtt.rto r);
  Tcp.Rtt.sample r (Sim.Time.ms 100);
  Alcotest.(check (option int)) "srtt = first sample" (Some (Sim.Time.ms 100))
    (Tcp.Rtt.srtt r);
  Alcotest.(check (option int)) "rttvar = half" (Some (Sim.Time.ms 50))
    (Tcp.Rtt.rttvar r);
  Alcotest.(check int) "rto = srtt + 4*rttvar" (Sim.Time.ms 300) (Tcp.Rtt.rto r)

let test_rtt_smoothing () =
  let r = Tcp.Rtt.create () in
  Tcp.Rtt.sample r (Sim.Time.ms 100);
  Tcp.Rtt.sample r (Sim.Time.ms 200);
  (* srtt = 7/8*100 + 1/8*200 = 112.5ms *)
  (match Tcp.Rtt.srtt r with
  | Some v -> Alcotest.(check int) "srtt smoothed" (Sim.Time.of_us_float 112_500.0) v
  | None -> Alcotest.fail "no srtt");
  Alcotest.(check int) "two samples" 2 (Tcp.Rtt.samples r)

let test_rtt_rto_clamps () =
  let r = Tcp.Rtt.create () in
  Tcp.Rtt.sample r (Sim.Time.us 10);
  Alcotest.(check int) "clamped to floor" Tcp.Rtt.min_rto (Tcp.Rtt.rto r);
  Alcotest.check_raises "negative sample" (Invalid_argument "Rtt.sample: negative RTT")
    (fun () -> Tcp.Rtt.sample r (-1))

let test_rtt_converges () =
  let r = Tcp.Rtt.create () in
  for _ = 1 to 100 do
    Tcp.Rtt.sample r (Sim.Time.ms 50)
  done;
  match Tcp.Rtt.srtt r with
  | Some v ->
    if abs (v - Sim.Time.ms 50) > Sim.Time.ms 1 then
      Alcotest.failf "did not converge: %d" v
  | None -> Alcotest.fail "no srtt"

(* {1 Segment} *)

let test_segment_wire_bytes () =
  let s = Tcp.Segment.make ~payload:"hello" ~seq:0 ~ack:0 ~window:100 () in
  Alcotest.(check int) "headers + payload" (Tcp.Segment.header_bytes + 5)
    (Tcp.Segment.wire_bytes s);
  let with_opt =
    Tcp.Segment.make ~payload:"hello" ~e2e:(E2e.Exchange.of_triple sample_triple) ~seq:0 ~ack:0 ~window:100 ()
  in
  Alcotest.(check int) "option adds 40"
    (Tcp.Segment.header_bytes + 5 + 40)
    (Tcp.Segment.wire_bytes with_opt);
  Alcotest.(check bool) "pure ack" true
    (Tcp.Segment.is_pure_ack (Tcp.Segment.make ~seq:0 ~ack:0 ~window:0 ()))

let suite =
  [
    ( "tcp.seq32",
      [
        Alcotest.test_case "wrapping add/sub" `Quick test_seq32_wrap_add;
        Alcotest.test_case "serial compare" `Quick test_seq32_serial_compare;
        Alcotest.test_case "window membership" `Quick test_seq32_between;
        QCheck_alcotest.to_alcotest prop_seq32_sub_add;
      ] );
    ( "tcp.bytebuf",
      [
        Alcotest.test_case "FIFO across chunks" `Quick test_bytebuf_fifo;
        Alcotest.test_case "peek and drop" `Quick test_bytebuf_peek_drop;
        Alcotest.test_case "byte conservation" `Quick test_bytebuf_conservation;
        QCheck_alcotest.to_alcotest prop_bytebuf_roundtrip;
        QCheck_alcotest.to_alcotest prop_bytebuf_matches_model;
        QCheck_alcotest.to_alcotest prop_bytebuf_take_views;
        Alcotest.test_case "zero-length operations on empty" `Quick
          test_bytebuf_zero_length_on_empty;
        Alcotest.test_case "take shares the appended string" `Quick test_bytebuf_take_shares;
      ] );
    ( "tcp.unit_fifo",
      [
        Alcotest.test_case "byte units are identity" `Quick test_unit_fifo_bytes_identity;
        Alcotest.test_case "syscall units complete at boundary" `Quick
          test_unit_fifo_syscall_units;
        Alcotest.test_case "drain spanning entries" `Quick test_unit_fifo_spanning_drain;
        Alcotest.test_case "overdrain rejected" `Quick test_unit_fifo_overdrain_rejected;
        QCheck_alcotest.to_alcotest prop_unit_fifo_conserves_units;
        QCheck_alcotest.to_alcotest prop_unit_fifo_matches_queue_model;
      ] );
    ( "tcp.options",
      [
        Alcotest.test_case "roundtrip incl. E2E state" `Quick test_options_roundtrip;
        Alcotest.test_case "padding alignment" `Quick test_options_padding_alignment;
        Alcotest.test_case "timestamp" `Quick test_options_timestamp;
        Alcotest.test_case "unknown preserved" `Quick test_options_unknown_preserved;
        Alcotest.test_case "truncated rejected" `Quick test_options_truncated_rejected;
        Alcotest.test_case "overflow rejected" `Quick test_options_overflow_rejected;
      ] );
    ( "tcp.nagle",
      [
        Alcotest.test_case "full segment sends" `Quick test_nagle_full_segment_always_sends;
        Alcotest.test_case "small + in-flight holds" `Quick
          test_nagle_holds_small_with_inflight;
        Alcotest.test_case "small + idle sends" `Quick test_nagle_sends_small_when_idle;
        Alcotest.test_case "TCP_NODELAY sends" `Quick test_nagle_disabled_always_sends;
        Alcotest.test_case "toggle counting" `Quick test_nagle_toggle_counting;
        Alcotest.test_case "AIMD min-send threshold" `Quick test_nagle_min_send_threshold;
        Alcotest.test_case "zero chunk" `Quick test_nagle_zero_chunk;
      ] );
    ( "tcp.delayed_ack",
      [
        Alcotest.test_case "every-second-segment" `Quick test_delack_count_trigger;
        Alcotest.test_case "timer expiry" `Quick test_delack_timer_trigger;
        Alcotest.test_case "piggyback cancels" `Quick test_delack_piggyback_cancels_timer;
      ] );
    ( "tcp.link",
      [
        Alcotest.test_case "serialization + propagation" `Quick
          test_link_serialization_and_prop;
        Alcotest.test_case "busy flag" `Quick test_link_busy;
      ] );
    ( "tcp.gro",
      [
        Alcotest.test_case "merges full segments" `Quick test_gro_merges_full_segments;
        Alcotest.test_case "small segment flushes" `Quick test_gro_small_segment_flushes;
        Alcotest.test_case "64KiB cap splits" `Quick test_gro_cap_splits;
        Alcotest.test_case "idle timeout flushes" `Quick test_gro_timeout_flush;
        Alcotest.test_case "disabled passthrough" `Quick test_gro_disabled_passthrough;
        Alcotest.test_case "order preserved" `Quick test_gro_preserves_order;
      ] );
    ( "tcp.rtt",
      [
        Alcotest.test_case "first sample (RFC 6298)" `Quick test_rtt_first_sample;
        Alcotest.test_case "smoothing" `Quick test_rtt_smoothing;
        Alcotest.test_case "RTO clamping / validation" `Quick test_rtt_rto_clamps;
        Alcotest.test_case "convergence" `Quick test_rtt_converges;
      ] );
    ( "tcp.segment",
      [ Alcotest.test_case "wire byte accounting" `Quick test_segment_wire_bytes ] );
  ]
