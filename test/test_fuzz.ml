(* Randomized end-to-end properties: byte-stream integrity under random
   traffic and runtime batching changes, RESP parsing under arbitrary
   chunking, model-based store checking, GRO conservation, and
   failure-injection on the estimator's input discipline. *)

(* {1 Socket stream integrity under random toggling} *)

(* Random write sizes interleaved with random Nagle toggles, cork
   settings, and AIMD limits must never corrupt or reorder the byte
   stream. *)
let prop_socket_stream_integrity =
  QCheck.Test.make ~name:"socket stream survives random batching changes" ~count:40
    QCheck.(
      pair (int_range 0 1_000_000)
        (list_of_size Gen.(1 -- 40) (pair (int_range 0 5000) (int_range 0 3))))
    (fun (seed, ops) ->
      let engine = Sim.Engine.create () in
      let rng = Sim.Rng.create ~seed in
      let host =
        {
          Tcp.Conn.socket = Tcp.Socket.default_config;
          tx_cost = 100;
          rx_seg_cost = 50;
          rx_batch_cost = 500;
          gro = Tcp.Gro.default_config ~mss:1448;
        }
      in
      let conn = Tcp.Conn.create engine ~a:host ~b:host () in
      let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
      let received = Buffer.create 4096 in
      Tcp.Socket.on_readable b (fun () ->
          Buffer.add_string received (Tcp.Socket.recv b (Tcp.Socket.recv_available b)));
      let sent = Buffer.create 4096 in
      let clock = ref 0 in
      List.iter
        (fun (len, action) ->
          clock := !clock + Sim.Rng.int rng ~bound:50_000 + 1;
          ignore
            (Sim.Engine.schedule_at engine ~at:!clock (fun () ->
                 (match action with
                 | 0 -> Tcp.Socket.set_nagle_enabled a true
                 | 1 -> Tcp.Socket.set_nagle_enabled a false
                 | 2 ->
                   Tcp.Socket.set_nagle_min_send a (Some (1 + Sim.Rng.int rng ~bound:1448))
                 | _ -> Tcp.Socket.set_nagle_min_send a None);
                 Tcp.Socket.kick a;
                 if len > 0 then begin
                   let chunk =
                     String.init len (fun i -> Char.chr ((i * 7 + len) mod 256))
                   in
                   Buffer.add_string sent chunk;
                   Tcp.Socket.send a chunk
                 end)))
        ops;
      Sim.Engine.run engine;
      String.equal (Buffer.contents sent) (Buffer.contents received))

(* {1 RESP under arbitrary chunking} *)

(* Pop every complete value; a protocol error fails the property. *)
let drain_parser parser acc =
  let rec go acc =
    match Kv.Resp.Parser.next parser with
    | Ok (Some v) -> go (v :: acc)
    | Ok None -> acc
    | Error e -> failwith e
  in
  go acc

(* Cut [wire] at the widths in [cuts], cycling through them. *)
let chunk_wire wire cuts =
  let rec go pos cuts acc =
    if pos >= String.length wire then List.rev acc
    else
      match cuts with
      | [] -> go pos [ 7 ] acc
      | w :: rest ->
        let n = min w (String.length wire - pos) in
        go (pos + n) (rest @ [ w ]) (String.sub wire pos n :: acc)
  in
  go 0 cuts []

let parse_by_feed chunks =
  let parser = Kv.Resp.Parser.create () in
  List.rev
    (List.fold_left
       (fun acc chunk ->
         Kv.Resp.Parser.feed parser chunk;
         drain_parser parser acc)
       [] chunks)

(* The receive path the KV client and server use: every chunk is one
   send() on a real connection, and the receiver moves slices straight
   into the parser's input with [Socket.recv_into]. *)
let parse_by_socket ~nagle chunks =
  let engine = Sim.Engine.create () in
  let host =
    { Tcp.Conn.default_host with socket = { Tcp.Socket.default_config with nagle } }
  in
  let conn = Tcp.Conn.create engine ~a:host ~b:host () in
  let a = Tcp.Conn.sock_a conn and b = Tcp.Conn.sock_b conn in
  let parser = Kv.Resp.Parser.create () in
  let parsed = ref [] in
  Tcp.Socket.on_readable b (fun () ->
      ignore (Tcp.Socket.recv_into b (Kv.Resp.Parser.input parser) (Tcp.Socket.recv_available b));
      parsed := drain_parser parser !parsed);
  List.iter (Tcp.Socket.send a) chunks;
  Sim.Engine.run engine;
  (List.rev !parsed, Kv.Resp.Parser.buffered parser)

(* Small and 16 KiB bulks, cut at widths from 1 byte (cuts inside every
   [$N] header and CRLF) up to a few MSS, parsed both through [feed]
   and through a socket. *)
let prop_resp_parse_any_chunking =
  QCheck.Test.make ~name:"RESP parser is chunking-invariant" ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 8)
           (make
              Gen.(
                frequency
                  [
                    (4, string_size (0 -- 40));
                    (1, map (fun c -> String.make 16_384 c) printable);
                  ])))
        (list_of_size Gen.(1 -- 20)
           (make Gen.(frequency [ (4, int_range 1 30); (1, int_range 31 5000) ])))
        bool)
    (fun (payloads, cuts, nagle) ->
      let values =
        List.map (fun s -> Kv.Resp.Array (Some [ Kv.Resp.Bulk (Some s) ])) payloads
      in
      let chunks = chunk_wire (String.concat "" (List.map Kv.Resp.encode values)) cuts in
      let by_socket, left = parse_by_socket ~nagle chunks in
      List.equal Kv.Resp.equal values (parse_by_feed chunks)
      && List.equal Kv.Resp.equal values by_socket
      && left = 0)

(* Minor words come from [Gc.minor_words]: on OCaml 5.1 the minor count
   in [Gc.counters] leaves out part of the current minor heap. *)
let words_allocated f =
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  f ();
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* The parser reads its input in place: one 64 B SET costs the parsed
   value and nothing that grows with what came before.  A parser that
   snapshots its whole buffer per call costs hundreds of words here. *)
let test_resp_parser_alloc_bounded () =
  let wire =
    Kv.Resp.encode
      (Kv.Command.to_resp
         (Kv.Command.Set { key = "key:000042"; value = String.make 64 'v'; ttl = None }))
  in
  let parser = Kv.Resp.Parser.create () in
  let one () =
    Kv.Resp.Parser.feed parser wire;
    match Kv.Resp.Parser.next parser with
    | Ok (Some _) -> ()
    | Ok None | Error _ -> Alcotest.fail "64 B SET did not parse"
  in
  for _ = 1 to 100 do
    one ()
  done;
  let n = 10_000 in
  let words = words_allocated (fun () -> for _ = 1 to n do one () done) in
  let per_value = words /. float_of_int n in
  if per_value > 120.0 then
    Alcotest.failf "%.1f words per 64 B SET (bound 120)" per_value

(* Once a 16 KiB value is consumed, the parser holds on to nothing of
   it: no grown buffer stays behind per connection. *)
let test_resp_parser_releases_consumed () =
  let value = String.make 16_384 'x' in
  let wire = Kv.Resp.encode (Kv.Resp.Array (Some [ Kv.Resp.Bulk (Some value) ])) in
  let parser = Kv.Resp.Parser.create () in
  List.iter (Kv.Resp.Parser.feed parser) (chunk_wire wire [ 1448 ]);
  (match Kv.Resp.Parser.next parser with
  | Ok (Some _) -> ()
  | Ok None | Error _ -> Alcotest.fail "16 KiB value did not parse");
  let words = Obj.reachable_words (Obj.repr parser) in
  if words > 256 then Alcotest.failf "parser retains %d words after its value" words

(* {1 Model-based store checking} *)

(* Execute a random command sequence against the store and an
   association-list reference model; observable replies must agree. *)
let prop_store_matches_model =
  let gen_op =
    QCheck.Gen.(
      oneof
        [
          map2 (fun k v -> `Set (k, v)) (int_bound 5) small_string;
          map (fun k -> `Get k) (int_bound 5);
          map (fun k -> `Del k) (int_bound 5);
          map2 (fun k v -> `Append (k, v)) (int_bound 5) small_string;
          map (fun k -> `Incr k) (int_bound 5);
        ])
  in
  QCheck.Test.make ~name:"store agrees with a reference model" ~count:200
    (QCheck.make QCheck.Gen.(list_size (1 -- 60) gen_op))
    (fun ops ->
      let store = Kv.Store.create () in
      let model = Hashtbl.create 8 in
      let key i = Printf.sprintf "k%d" i in
      List.for_all
        (fun op ->
          match op with
          | `Set (k, v) ->
            Kv.Store.set store ~now:0 (key k) v;
            Hashtbl.replace model (key k) v;
            true
          | `Get k ->
            Kv.Store.get store ~now:0 (key k) = Hashtbl.find_opt model (key k)
          | `Del k ->
            let expected = if Hashtbl.mem model (key k) then 1 else 0 in
            Hashtbl.remove model (key k);
            Kv.Store.delete store ~now:0 [ key k ] = expected
          | `Append (k, v) ->
            let prev = Option.value (Hashtbl.find_opt model (key k)) ~default:"" in
            Hashtbl.replace model (key k) (prev ^ v);
            Kv.Store.append store ~now:0 (key k) v = String.length prev + String.length v
          | `Incr k -> (
            let prev = Hashtbl.find_opt model (key k) in
            let expected =
              match prev with
              | None -> Some 1
              | Some s -> Option.map (fun n -> n + 1) (int_of_string_opt s)
            in
            match (Kv.Store.incr_by store ~now:0 (key k) 1, expected) with
            | Ok n, Some m when n = m ->
              Hashtbl.replace model (key k) (string_of_int n);
              true
            | Error _, None -> true
            | _ -> false))
        ops)

(* {1 GRO conservation} *)

let prop_gro_conserves_segments =
  QCheck.Test.make ~name:"GRO delivers every segment exactly once, in order" ~count:100
    QCheck.(list_of_size Gen.(1 -- 80) (pair (int_range 1 1448) (int_range 0 20)))
    (fun segs ->
      let engine = Sim.Engine.create () in
      let delivered = ref [] in
      let gro =
        Tcp.Gro.create engine (Tcp.Gro.default_config ~mss:1448)
          ~rx:delivered
          ~deliver:(fun delivered batch ->
            List.iter (fun (s : Tcp.Segment.t) -> delivered := s.seq :: !delivered) batch)
      in
      let clock = ref 0 in
      let seq = ref 0 in
      List.iter
        (fun (len, gap_us) ->
          clock := !clock + Sim.Time.us gap_us;
          let this_seq = !seq in
          seq := !seq + len;
          ignore
            (Sim.Engine.schedule_at engine ~at:!clock (fun () ->
                 Tcp.Gro.submit gro
                   (Tcp.Segment.make ~payload:(String.make len 'x') ~seq:this_seq ~ack:0
                      ~window:65536 ()))))
        segs;
      Sim.Engine.run engine;
      Tcp.Gro.flush gro;
      let expected =
        List.rev
          (fst
             (List.fold_left
                (fun (acc, s) (len, _) -> (s :: acc, s + len))
                ([], 0) segs))
      in
      List.rev !delivered = expected)

(* {1 Failure injection: estimator input discipline} *)

let test_estimator_rejects_bad_input () =
  let e = E2e.Estimator.create ~at:(Sim.Time.us 100) in
  Alcotest.check_raises "backwards unacked"
    (Invalid_argument "Queue_state.track: time went backwards") (fun () ->
      E2e.Estimator.track_unacked e ~at:(Sim.Time.us 50) 1);
  Alcotest.check_raises "negative unread"
    (Invalid_argument "Queue_state.track: size would become negative") (fun () ->
      E2e.Estimator.track_unread e ~at:(Sim.Time.us 200) (-1))

let test_decode_garbage_options () =
  (* Random byte strings must never crash the option parser: either a
     parse or a clean error. *)
  let rng = Sim.Rng.create ~seed:99 in
  for _ = 1 to 1_000 do
    let len = Sim.Rng.int rng ~bound:40 in
    let s = String.init len (fun _ -> Char.chr (Sim.Rng.int rng ~bound:256)) in
    match Tcp.Options.decode s with Ok _ | Error _ -> ()
  done

let test_decode_garbage_exchange () =
  (* Corruption discipline: random 36-byte payloads must never raise,
     and (equal snapshot times being a 2^-64 coincidence) must decode
     to [Error] rather than a counter-poisoning garbage triple.  Any
     that slipped through would then have to be refused by the
     estimator's ingest clamps without touching its state. *)
  let rng = Sim.Rng.create ~seed:7 in
  let e = E2e.Estimator.create ~at:0 in
  for _ = 1 to 1_000 do
    let s = String.init 36 (fun _ -> Char.chr (Sim.Rng.int rng ~bound:256)) in
    match E2e.Exchange.decode s with
    | Error _ -> ()
    | Ok garbage ->
      E2e.Estimator.ingest_remote e ~at:(Sim.Time.us 1) garbage;
      Alcotest.(check bool)
        "estimator ignored the lucky garbage triple" true
        (E2e.Estimator.remote_window e = None)
  done;
  Alcotest.(check int) "no garbage accepted" 0
    (match E2e.Estimator.remote_window e with None -> 0 | Some _ -> 1)

(* The 36-byte wire format truncates every counter to 32 bits; unwrap
   must reconstruct the true full-width deltas no matter where the
   counters sit relative to the 2^32 boundary. *)
let prop_unwrap_across_wraparound =
  QCheck.Test.make ~count:200 ~name:"exchange unwrap survives 2^32 wraparound"
    QCheck.(
      triple (int_range 0 2_000_000) (int_range 1 1_000_000) (int_range 0 1_000_000))
    (fun (offset, d_time, d_total) ->
      (* Base counters within +/-1M of the wrap point, so successive
         snapshots straddle it for roughly half the generated cases. *)
      let base = (1 lsl 32) - 1_000_000 + offset in
      let mk v total : E2e.Exchange.triple =
        let share : E2e.Queue_state.share =
          { time = Sim.Time.us v; total; integral = float_of_int total *. 1e3 }
        in
        { unacked = share; unread = share; ackdelay = share }
      in
      let t0 = mk base base in
      let t1 = mk (base + d_time) (base + d_total) in
      let w0 = Result.get_ok (E2e.Exchange.decode (E2e.Exchange.encode t0)) in
      let w1 = Result.get_ok (E2e.Exchange.decode (E2e.Exchange.encode t1)) in
      let u0 = E2e.Exchange.unwrap ~prev:t0 ~cur:w0 in
      let u1 = E2e.Exchange.unwrap ~prev:u0 ~cur:w1 in
      u1.unacked.total - u0.unacked.total = d_total
      && (Sim.Time.to_ns u1.unacked.time - Sim.Time.to_ns u0.unacked.time) / 1_000
         = d_time
      && Float.abs (u1.unread.integral -. u0.unread.integral -. (float_of_int d_total *. 1e3))
         <= 2e3)

(* {1 Trace readers under corruption} *)

(* A small real trace, from a short dynamic-batching run, as a binary
   file and as JSONL text: every 25th record, and every decision,
   outcome, estimate, audit, toggle and message. *)
let real_trace =
  lazy
    (let base = Loadgen.Runner.default_config ~rate_rps:20e3
         ~batching:(Loadgen.Runner.Dynamic Loadgen.Runner.default_dynamic) in
     let r =
       Loadgen.Runner.run
         { base with warmup = Sim.Time.ms 2; duration = Sim.Time.ms 4;
           observe = Some { Loadgen.Observe.default_config with trace_capacity = 4096 } }
     in
     let records =
       match r.observability with
       | Some o ->
         let rare = [ "decision"; "outcome"; "estimate"; "audit"; "toggle"; "slo_declared" ] in
         List.filteri (fun i r -> i mod 25 = 0 || List.mem (Sim.Trace.tag r) rare) o.records
       | None -> failwith "no observability output"
     in
     let runs = List.mapi (fun i r -> ((if i mod 2 = 0 then None else Some "r"), r)) records in
     let path = Filename.temp_file "e2e_fuzz" ".bin" in
     let oc = open_out_bin path in
     let w = Sim.Trace.Binary.writer oc in
     List.iter (fun (run, r) -> Sim.Trace.Binary.write w ?run r) runs;
     Sim.Trace.Binary.finish w;
     close_out oc;
     let bin = In_channel.with_open_bin path In_channel.input_all in
     Sys.remove path;
     let jsonl =
       String.concat "" (List.map (fun (run, r) -> Sim.Trace.record_to_json ?run r ^ "\n") runs)
     in
     (bin, jsonl))

(* The line-oriented inputs: bench's fleet scenario, the identity
   fault plan, a synthesized request trace and a gap trace, each with
   the reader that parses it. *)
let line_inputs =
  lazy
    (let fleet_scenario =
       "fleet seed=42 warmup_ms=100 duration_ms=400 scope=per_conn batching=off\n\
        tenant name=bare conns=1 rate_rps=70000 mix=set_only cpu_mult=1 slo_us=500 \
        batching=dynamic epsilon=0.02\n\
        tenant name=vm conns=1 rate_rps=15000 mix=small cpu_mult=4 slo_us=2000 \
        batching=dynamic epsilon=0.02\n"
     in
     let requests =
       Loadgen.Trace.synthesize ~workload:Loadgen.Workload.paper_set_only ~rate_rps:20e3
         ~duration:(Sim.Time.ms 2) ~rng:(Sim.Rng.create ~seed:3)
     in
     let ignore_ok parse text = Result.map ignore (parse text) in
     [
       (fleet_scenario, ignore_ok Scenario.Spec.of_string);
       ( In_channel.with_open_text "regress/identity.fault" In_channel.input_all,
         ignore_ok Fault.Plan.of_string );
       (Loadgen.Trace.to_string requests, ignore_ok Loadgen.Trace.of_string);
       ( Loadgen.Trace.gaps_to_string [| 0; 1_000; 123_456; 2_500_000; 40 |],
         ignore_ok Loadgen.Trace.gaps_of_string );
     ])

(* Truncated at a random length, with random bits flipped, every input
   reads as [Ok] or as an [Error] that says where (a byte offset or a
   line): the two trace encodings through [Sim.Trace.fold_file] (and
   [record_of_json] takes every JSONL line without raising), and the
   four line-oriented inputs through their readers.  A raise or a hang
   fails the property. *)
let prop_trace_readers_survive_corruption =
  QCheck.Test.make ~name:"trace readers survive truncation and bit flips" ~count:300
    QCheck.(
      triple (int_range 0 5) (float_range 0.0 1.0)
        (list_of_size Gen.(0 -- 6) (pair (float_range 0.0 1.0) (int_range 0 7))))
    (fun (source, cut, flips) ->
      let bin, jsonl = Lazy.force real_trace in
      let src =
        match source with
        | 0 -> bin
        | 1 -> jsonl
        | i -> fst (List.nth (Lazy.force line_inputs) (i - 2))
      in
      let len = int_of_float (cut *. float_of_int (String.length src)) in
      let by = Bytes.sub (Bytes.of_string src) 0 len in
      if len > 0 then
        List.iter
          (fun (at, bit) ->
            let i = min (len - 1) (int_of_float (at *. float_of_int len)) in
            Bytes.set_uint8 by i (Bytes.get_uint8 by i lxor (1 lsl bit)))
          flips;
      let has msg sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
        go 0
      in
      let located = function Ok _ -> true | Error msg -> has msg "offset " || has msg "line " in
      if source >= 2 then
        located ((snd (List.nth (Lazy.force line_inputs) (source - 2))) (Bytes.to_string by))
      else begin
        let binary = source = 0 in
        let path = Filename.temp_file "e2e_fuzz" (if binary then ".bin" else ".jsonl") in
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc by);
        let result = Sim.Trace.fold_file path ~init:0 ~f:(fun n _ _ -> n + 1) in
        Sys.remove path;
        (binary
        || List.for_all
             (fun line -> match Sim.Trace.record_of_json line with Ok _ | Error _ -> true)
             (String.split_on_char '\n' (Bytes.to_string by)))
        && located result
      end)

(* {1 Line readers reject what they cannot hold}

   A non-finite number, a time that overflows the simulated clock, a
   repeated key, or a SET too large for one RESP bulk: each row must be
   an [Error] that carries its line prefix and names the key or item. *)
let test_readers_reject_unrepresentable () =
  let ignore_ok parse text = Result.map ignore (parse text) in
  let scenario = ignore_ok Scenario.Spec.of_string
  and plan = ignore_ok Fault.Plan.of_string
  and requests = ignore_ok Loadgen.Trace.of_string
  and gaps = ignore_ok Loadgen.Trace.gaps_of_string
  and policy = ignore_ok E2e.Policy.of_string in
  let rows =
    [
      (plan, "loss dir=both prob=nan", "fault plan line 1:", "prob");
      (plan, "delay at_ms=nan us=nan", "fault plan line 1:", "at_ms");
      (plan, "rate at_ms=inf gbps=inf", "fault plan line 1:", "at_ms");
      (plan, "blackout from_ms=-inf until_ms=5", "fault plan line 1:", "from_ms");
      (plan, "reorder prob=0.1 disp=1e300", "fault plan line 1:", "disp");
      (plan, "corrupt prob=0.1 prob=0.5", "fault plan line 1:", "\"prob\" given twice");
      (scenario, "tenant name=a rate_rps=1000 conns=1 conns=5", "scenario line 1:",
       "\"conns\" given twice");
      (scenario, "fleet duration_ms=1e300\ntenant name=a rate_rps=1000", "scenario line 1:",
       "duration_ms");
      (gaps, "10\n1e300\n", "line 2:", "\"1e300\"");
      (requests, "99999999999999999 GET k", "line 1:", "\"99999999999999999\"");
      (policy, "slo:inf", "", "\"inf\"");
      (requests, "1 SET k 536870913", "line 1:", "536870913");
    ]
  in
  List.iter
    (fun (read, text, prefix, item) ->
      match read text with
      | Ok () -> Alcotest.failf "accepted %S" text
      | Error msg ->
        let has sub =
          let n = String.length sub in
          let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
          go 0
        in
        if not (String.starts_with ~prefix msg && has item) then
          Alcotest.failf "%S: error %S does not start with %S and name %S" text msg prefix item)
    rows

let suite =
  [
    ( "fuzz",
      [
        QCheck_alcotest.to_alcotest prop_unwrap_across_wraparound;
        QCheck_alcotest.to_alcotest prop_socket_stream_integrity;
        QCheck_alcotest.to_alcotest prop_resp_parse_any_chunking;
        Alcotest.test_case "RESP parse allocation per value is bounded" `Quick
          test_resp_parser_alloc_bounded;
        Alcotest.test_case "RESP parser releases a consumed value" `Quick
          test_resp_parser_releases_consumed;
        QCheck_alcotest.to_alcotest prop_store_matches_model;
        QCheck_alcotest.to_alcotest prop_gro_conserves_segments;
        Alcotest.test_case "estimator input discipline" `Quick
          test_estimator_rejects_bad_input;
        Alcotest.test_case "option parser on garbage" `Quick test_decode_garbage_options;
        Alcotest.test_case "exchange decode on garbage" `Quick
          test_decode_garbage_exchange;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20 |])
          prop_trace_readers_survive_corruption;
        Alcotest.test_case "line readers reject unrepresentable input" `Quick
          test_readers_reject_unrepresentable;
      ] );
  ]
