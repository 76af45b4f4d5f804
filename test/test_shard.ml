(* Sharded serving tier: flat pooled storage, RSS-style steering, the
   front load balancer, the new trace events (JSONL + binary v4), the
   forward-compatibility skip path for traces written by newer
   versions, and the sharded fleet's per-shard accounting. *)

module Flat = Shard.Flat
module Steer = Shard.Steer
module Lb = Shard.Lb
module Fleet = Loadgen.Fleet

(* {1 Flat pool} *)

let test_flat_basics () =
  let p = Flat.create ~capacity:2 ~dummy:(-1) () in
  Alcotest.(check int) "empty" 0 (Flat.live p);
  let a = Flat.alloc p 10 and b = Flat.alloc p 20 in
  Alcotest.(check int) "two live" 2 (Flat.live p);
  Alcotest.(check int) "get a" 10 (Flat.get p a);
  Alcotest.(check int) "get b" 20 (Flat.get p b);
  Flat.set p a 11;
  Alcotest.(check int) "set visible" 11 (Flat.get p a);
  Flat.free p a;
  Alcotest.(check bool) "freed slot dead" false (Flat.in_use p a);
  Alcotest.(check bool) "other slot alive" true (Flat.in_use p b);
  (* LIFO reuse: the freed index comes back *)
  let c = Flat.alloc p 30 in
  Alcotest.(check int) "freed index reissued" a c;
  Alcotest.(check int) "reused slot holds new value" 30 (Flat.get p c);
  Alcotest.check_raises "get dead slot" (Invalid_argument "Shard.Flat.get: dead slot")
    (fun () -> ignore (Flat.get p 99));
  Alcotest.check_raises "double free" (Invalid_argument "Shard.Flat.free: dead slot")
    (fun () -> Flat.free p a; Flat.free p a)

let test_flat_grow_preserves () =
  let p = Flat.create ~capacity:2 ~dummy:"" () in
  let hs = Array.init 100 (fun i -> Flat.alloc p (string_of_int i)) in
  Alcotest.(check bool) "grew" true (Flat.capacity p >= 100);
  Array.iteri
    (fun i h ->
      Alcotest.(check string) "survives growth" (string_of_int i) (Flat.get p h))
    hs

let test_flat_iteration_order () =
  let p = Flat.create ~dummy:0 () in
  let hs = List.init 10 (fun i -> Flat.alloc p (100 + i)) in
  (* kill a few in the middle; iteration must stay ascending over the
     survivors *)
  List.iter (fun i -> Flat.free p (List.nth hs i)) [ 3; 7; 1 ];
  let seen = ref [] in
  Flat.iter p ~f:(fun i v -> seen := (i, v) :: !seen);
  let seen = List.rev !seen in
  let idxs = List.map fst seen in
  Alcotest.(check bool) "ascending" true (List.sort compare idxs = idxs);
  List.iter
    (fun (i, v) -> Alcotest.(check int) "value matches handle" (100 + i) v)
    seen;
  Alcotest.(check int) "fold agrees with iter"
    (List.length seen)
    (Flat.fold p ~init:0 ~f:(fun n _ _ -> n + 1))

(* Random alloc/free interleavings against a model map: handles never
   alias live slots, every live slot reads back its model value, and
   iteration is ascending. *)
let prop_flat_model =
  let open QCheck in
  let gen = Gen.(list_size (1 -- 200) (pair bool small_nat)) in
  Test.make ~count:100 ~name:"flat pool matches a model map under random ops"
    (make gen) (fun ops ->
      let p = Flat.create ~capacity:1 ~dummy:(-1) () in
      let model = Hashtbl.create 64 in
      let live_handles () =
        Hashtbl.fold (fun h _ acc -> h :: acc) model [] |> List.sort compare
      in
      List.iter
        (fun (is_alloc, v) ->
          if is_alloc || Hashtbl.length model = 0 then begin
            let h = Flat.alloc p v in
            (* a fresh handle must not alias a live slot *)
            if Hashtbl.mem model h then failwith "alloc aliased a live handle";
            Hashtbl.replace model h v
          end
          else begin
            let hs = live_handles () in
            let h = List.nth hs (v mod List.length hs) in
            Flat.free p h;
            Hashtbl.remove model h
          end)
        ops;
      (* final state: live set, payloads and order all agree *)
      let seen = ref [] in
      Flat.iter p ~f:(fun i v -> seen := (i, v) :: !seen);
      let seen = List.rev !seen in
      let idxs = List.map fst seen in
      List.length seen = Hashtbl.length model
      && Flat.live p = Hashtbl.length model
      && List.sort compare idxs = idxs
      && List.for_all (fun (i, v) -> Hashtbl.find_opt model i = Some v) seen)

(* {1 Steering} *)

let test_steer_lookup_in_range () =
  let t = Steer.create ~shards:4 in
  for i = 0 to 999 do
    let s = Steer.lookup t (Printf.sprintf "bare/c%d" i) in
    if s < 0 || s >= 4 then Alcotest.failf "shard %d out of range" s;
    Alcotest.(check int) "deterministic" s
      (Steer.lookup t (Printf.sprintf "bare/c%d" i))
  done

let test_steer_repin () =
  let t = Steer.create ~shards:4 in
  let id = "vm/c7" in
  let home = Steer.lookup t id in
  let target = (home + 1) mod 4 in
  Steer.repin t id ~shard:target;
  Alcotest.(check int) "override wins" target (Steer.lookup t id);
  Steer.unpin t id;
  Alcotest.(check int) "unpin restores the hash" home (Steer.lookup t id);
  Steer.unpin t id (* no-op *)

let test_steer_retable () =
  let t = Steer.create ~shards:4 in
  (* rewrite every indirection entry to shard 2: all flows land there *)
  for e = 0 to Steer.table_size - 1 do
    Steer.retable t ~entry:e ~shard:2
  done;
  for i = 0 to 99 do
    Alcotest.(check int) "rebalanced" 2 (Steer.lookup t (Printf.sprintf "c%d" i))
  done;
  Alcotest.check_raises "bad entry"
    (Invalid_argument "Shard.Steer.retable: entry out of range") (fun () ->
      Steer.retable t ~entry:Steer.table_size ~shard:0);
  Alcotest.check_raises "bad shard"
    (Invalid_argument "Shard.Steer.retable: shard out of range") (fun () ->
      Steer.retable t ~entry:0 ~shard:4)

let prop_steer_hash_matches_table =
  let open QCheck in
  Test.make ~count:200 ~name:"un-overridden lookup is hash mod table"
    (make Gen.(string_size ~gen:printable (0 -- 24)))
    (fun id ->
      let t = Steer.create ~shards:8 in
      let entry = Steer.hash id mod Steer.table_size in
      Steer.lookup t id = entry mod 8)

(* {1 Load balancer} *)

let test_lb_policy_strings () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "round-trips" true
        (Lb.policy_of_string (Lb.policy_to_string p) = Some p))
    [ Lb.Round_robin; Lb.Consistent_hash; Lb.Least_loaded ];
  Alcotest.(check bool) "unknown is None" true (Lb.policy_of_string "rr" = None)

let test_lb_round_robin () =
  let t = Lb.create ~policy:Lb.Round_robin ~shards:3 in
  let got = List.init 7 (fun i -> Lb.assign t ~key:(Printf.sprintf "c%d" i)) in
  Alcotest.(check (list int)) "cycles" [ 0; 1; 2; 0; 1; 2; 0 ] got;
  Alcotest.(check (list int)) "loads counted" [ 3; 2; 2 ]
    (Array.to_list (Lb.loads t))

let test_lb_least_loaded () =
  let t = Lb.create ~policy:Lb.Least_loaded ~shards:3 in
  Alcotest.(check int) "tie breaks low" 0 (Lb.assign t ~key:"a");
  Alcotest.(check int) "next lowest" 1 (Lb.assign t ~key:"b");
  Alcotest.(check int) "next lowest" 2 (Lb.assign t ~key:"c");
  Lb.release t ~shard:1;
  Alcotest.(check int) "released shard is argmin" 1 (Lb.assign t ~key:"d");
  Alcotest.check_raises "underflow"
    (Invalid_argument "Shard.Lb.release: shard has no load") (fun () ->
      Lb.release t ~shard:1;
      Lb.release t ~shard:1)

let test_lb_consistent_hash_deterministic () =
  let t = Lb.create ~policy:Lb.Consistent_hash ~shards:4 in
  let t' = Lb.create ~policy:Lb.Consistent_hash ~shards:4 in
  for i = 0 to 499 do
    let k = Printf.sprintf "tenant/c%d" i in
    Alcotest.(check int) "independent of load history" (Lb.assign t ~key:k)
      (Lb.assign t' ~key:k)
  done

(* The consistent-hashing contract: adding a shard to an M-shard ring
   only captures keys for the NEW shard — no key moves between two
   old shards — and only ~K/M of them move at all. *)
let test_lb_consistent_hash_remap () =
  let n = 1000 in
  let keys = List.init n (fun i -> Printf.sprintf "conn-%d" i) in
  let assign ~shards k =
    let t = Lb.create ~policy:Lb.Consistent_hash ~shards in
    Lb.assign t ~key:k
  in
  let moved =
    List.fold_left
      (fun acc k ->
        let before = assign ~shards:4 k and after = assign ~shards:5 k in
        if before = after then acc
        else begin
          Alcotest.(check int) "movers land on the new shard only" 4 after;
          acc + 1
        end)
      0 keys
  in
  Alcotest.(check bool) "some keys move" true (moved > 0);
  (* expectation is n/5 = 200; the 8-vnode ring is lumpy, so allow 2x *)
  Alcotest.(check bool)
    (Printf.sprintf "moved %d <= 2n/5" moved)
    true
    (moved <= 2 * n / 5)

(* {1 Shard pool} *)

let test_pool_layout () =
  let engine = Sim.Engine.create () in
  let p = Shard.Pool.create engine ~cores:3 in
  Alcotest.(check int) "cores" 3 (Shard.Pool.cores p);
  let seen = ref [] in
  Shard.Pool.iter p ~f:(fun s -> seen := s.Shard.Pool.index :: !seen);
  Alcotest.(check (list int)) "iterates in shard order" [ 0; 1; 2 ]
    (List.rev !seen);
  let s1 = Shard.Pool.shard p 1 in
  Alcotest.(check bool) "accessors agree" true
    (s1.Shard.Pool.cpu == Shard.Pool.cpu p 1 && s1.Shard.Pool.irq == Shard.Pool.irq p 1);
  Alcotest.check_raises "zero cores"
    (Invalid_argument "Shard.Pool.create: cores must be >= 1") (fun () ->
      ignore (Shard.Pool.create engine ~cores:0))

(* {1 Trace events and id tagging} *)

let shard_events : (string option * Sim.Trace.record) list =
  [
    ( Some "scale",
      { Sim.Trace.at = Sim.Time.us 1; id = "bare/c0@s3";
        event = Sim.Trace.Lb_assigned { shard = 3; policy = "least_loaded" } } );
    ( None,
      { Sim.Trace.at = Sim.Time.us 2; id = "bare/c0@s3";
        event = Sim.Trace.Shard_enqueued { shard = 3; depth = 17 } } );
    ( None,
      { Sim.Trace.at = Sim.Time.us 3; id = "vm/c1@s0";
        event = Sim.Trace.Shard_enqueued { shard = 0; depth = 0x1_0000_0001 } } );
  ]

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let test_shard_events_jsonl_roundtrip () =
  let path = Filename.temp_file "e2e_shardj" ".jsonl" in
  write_lines path
    (List.map (fun (run, r) -> Sim.Trace.record_to_json ?run r) shard_events);
  (match
     Sim.Trace.fold_jsonl path ~init:[] ~f:(fun acc run r -> (run, r) :: acc)
   with
  | Ok rev ->
    Alcotest.(check bool) "JSONL round-trips the new events" true
      (List.rev rev = shard_events)
  | Error e -> Alcotest.failf "fold failed: %s" e);
  Sys.remove path

let test_shard_events_binary_roundtrip () =
  let path = Filename.temp_file "e2e_shardb" ".bin" in
  let oc = open_out_bin path in
  let w = Sim.Trace.Binary.writer oc in
  List.iter (fun (run, r) -> Sim.Trace.Binary.write w ?run r) shard_events;
  Sim.Trace.Binary.finish w;
  close_out oc;
  (match Sim.Trace.Binary.load_file path with
  | Ok loaded ->
    Alcotest.(check bool) "binary round-trips the new events" true
      (loaded = shard_events)
  | Error e -> Alcotest.failf "load failed: %s" e);
  Sys.remove path

let test_shard_of_id () =
  let check msg got want =
    Alcotest.(check bool) msg true (got = want)
  in
  check "tagged" (Sim.Trace.shard_of_id "bare/c0@s3") (Some 3);
  check "client id" (Sim.Trace.shard_of_id "vm/client@s12") (Some 12);
  check "untagged" (Sim.Trace.shard_of_id "bare/c0") None;
  check "bare conn" (Sim.Trace.shard_of_id "c0") None;
  check "not a number" (Sim.Trace.shard_of_id "c0@sx") None;
  check "tenant still parses through the tag"
    (Sim.Trace.tenant_of_id "bare/c0@s3") (Some "bare")

(* {1 Forward compatibility: traces from a newer writer} *)

(* A well-formed line whose ["ev"] tag this version has never heard
   of: strict folds fail with the tag in the message, [~unknown] folds
   skip it and keep the rest. *)
let test_jsonl_forward_compat () =
  let path = Filename.temp_file "e2e_fwdj" ".jsonl" in
  let known =
    { Sim.Trace.at = Sim.Time.us 1; id = "c0";
      event = Sim.Trace.Req_sent { req = 0 } }
  in
  write_lines path
    [ Sim.Trace.record_to_json known;
      {|{"at_ns":2000,"conn":"c0","ev":"quantum_entangled","qubits":3}|};
      Sim.Trace.record_to_json known ];
  (match Sim.Trace.fold_jsonl path ~init:0 ~f:(fun n _ _ -> n + 1) with
  | Error msg ->
    Alcotest.(check bool) "strict fold names the tag" true
      (let n = String.length msg in
       let rec go i =
         i + 17 <= n && (String.sub msg i 17 = "quantum_entangled" || go (i + 1))
       in
       go 0)
  | Ok _ -> Alcotest.fail "strict fold accepted an unknown event");
  let skipped = ref 0 in
  (match
     Sim.Trace.fold_jsonl path
       ~unknown:(fun _ -> incr skipped)
       ~init:0 ~f:(fun n _ _ -> n + 1)
   with
  | Ok n ->
    Alcotest.(check int) "known records still fold" 2 n;
    Alcotest.(check int) "one skip reported" 1 !skipped
  | Error e -> Alcotest.failf "tolerant fold failed: %s" e);
  Sys.remove path

(* Hand-craft a binary file as a version-(n+1) writer would emit it:
   valid v-current records, plus one record of an unknown kind whose
   payload carries the explicit u16 length the forward-compat contract
   requires, and a bumped version in the header.  Splicing happens at
   the byte level so the test breaks if the header/footer layout
   drifts without the version note being updated. *)
let test_binary_forward_compat () =
  let path = Filename.temp_file "e2e_fwdb" ".bin" in
  let oc = open_out_bin path in
  let w = Sim.Trace.Binary.writer oc in
  List.iter (fun (run, r) -> Sim.Trace.Binary.write w ?run r) shard_events;
  Sim.Trace.Binary.finish w;
  close_out oc;
  let raw =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let b = Bytes.create n in
    really_input ic b 0 n;
    close_in ic;
    b
  in
  let size = Bytes.length raw in
  let footer = size - 32 in
  let trailer_off = Int64.to_int (Bytes.get_int64_le raw footer) in
  let n_records = Int64.to_int (Bytes.get_int64_le raw (footer + 8)) in
  (* an unknown-kind record: prefix | u16 payload len | opaque payload *)
  let payload = "from-the-future" in
  let alien = Buffer.create 32 in
  Buffer.add_uint8 alien 200;              (* kind this version lacks *)
  Buffer.add_uint8 alien 0;                (* flags: no run ref, narrow *)
  Buffer.add_uint16_le alien 0;            (* id ref *)
  Buffer.add_int64_le alien 4242L;         (* at_ns *)
  Buffer.add_uint16_le alien (String.length payload);
  Buffer.add_string alien payload;
  let alien = Buffer.to_bytes alien in
  let future = Buffer.create size in
  Buffer.add_bytes future (Bytes.sub raw 0 trailer_off);
  Buffer.add_bytes future alien;
  Buffer.add_bytes future (Bytes.sub raw trailer_off (footer - trailer_off));
  (* patched footer: trailer moved, one more record *)
  Buffer.add_int64_le future (Int64.of_int (trailer_off + Bytes.length alien));
  Buffer.add_int64_le future (Int64.of_int (n_records + 1));
  Buffer.add_bytes future (Bytes.sub raw (footer + 16) 16);
  let future = Buffer.to_bytes future in
  Bytes.set_uint16_le future 8 5;          (* header: version n+1 *)
  let fpath = path ^ ".v5" in
  let oc = open_out_bin fpath in
  output_bytes oc future;
  close_out oc;
  (match Sim.Trace.Binary.load_file fpath with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "strict load accepted a newer version");
  let skipped = ref 0 in
  (match
     Sim.Trace.fold_file fpath
       ~unknown:(fun _ -> incr skipped)
       ~init:[] ~f:(fun acc run r -> (run, r) :: acc)
   with
  | Ok rev ->
    Alcotest.(check int) "alien record skipped" 1 !skipped;
    Alcotest.(check bool) "known records survive the skip" true
      (List.rev rev = shard_events)
  | Error e -> Alcotest.failf "tolerant fold failed: %s" e);
  List.iter Sys.remove [ path; fpath ]

(* {1 Sharded fleet} *)

let quick_tenants =
  [
    { (Fleet.default_tenant ~name:"bare" ~rate_rps:40000.0) with Fleet.n_conns = 8 };
    { (Fleet.default_tenant ~name:"vm" ~rate_rps:15000.0) with
      Fleet.n_conns = 6; cpu_multiplier = 4.0 };
  ]

let quick_config ~cores ~lb =
  { (Fleet.default_config ~tenants:quick_tenants) with
    Fleet.warmup = Sim.Time.ms 5;
    duration = Sim.Time.ms 20;
    cores;
    lb }

let test_fleet_cores1_single_shard () =
  let r = Fleet.run (quick_config ~cores:1 ~lb:Lb.Consistent_hash) in
  match r.Fleet.shards with
  | [ s ] ->
    Alcotest.(check int) "index" 0 s.Fleet.sh_index;
    Alcotest.(check int) "all conns on the one shard" 14 s.Fleet.sh_conns;
    Alcotest.(check (list string)) "closure" [] (Loadgen.Invariants.(check base) r);
    (* the singleton shard IS the server *)
    Alcotest.(check (float 1e-9)) "app util" r.Fleet.server_app_util s.Fleet.sh_app_util;
    Alcotest.(check (float 1e-9)) "irq util" r.Fleet.server_irq_util s.Fleet.sh_irq_util
  | l -> Alcotest.failf "expected 1 shard result, got %d" (List.length l)

let test_fleet_sharded_accounting () =
  let r = Fleet.run (quick_config ~cores:4 ~lb:Lb.Least_loaded) in
  Alcotest.(check int) "four shard results" 4 (List.length r.Fleet.shards);
  Alcotest.(check (list string)) "per-shard closure" [] (Loadgen.Invariants.(check base) r);
  List.iteri
    (fun k s ->
      Alcotest.(check int) "index order" k s.Fleet.sh_index;
      (* a shard's recorder sees its own connections' completions in
         the measured window, a subset of their lifetime completions *)
      if s.Fleet.sh_completed > s.Fleet.sh_completed_total then
        Alcotest.failf "shard %d recorded %d completions of %d" k s.Fleet.sh_completed
          s.Fleet.sh_completed_total)
    r.Fleet.shards;
  (* shard accounting partitions the fleet exactly *)
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 in
  Alcotest.(check int) "conns partitioned" 14
    (sum (fun s -> s.Fleet.sh_conns) r.Fleet.shards);
  Alcotest.(check int) "issued partitioned"
    (List.fold_left (fun acc t -> acc + t.Fleet.t_issued) 0 r.Fleet.tenants)
    (sum (fun s -> s.Fleet.sh_issued) r.Fleet.shards);
  Alcotest.(check int) "measured completions partitioned"
    (List.fold_left (fun acc t -> acc + t.Fleet.t_completed) 0 r.Fleet.tenants)
    (sum (fun s -> s.Fleet.sh_completed) r.Fleet.shards);
  (* least_loaded spreads 14 conns over 4 shards: loads differ by <= 1 *)
  List.iter
    (fun s ->
      if s.Fleet.sh_conns < 3 || s.Fleet.sh_conns > 4 then
        Alcotest.failf "least_loaded spread broken: shard %d got %d conns"
          s.Fleet.sh_index s.Fleet.sh_conns)
    r.Fleet.shards

let test_fleet_sharded_deterministic () =
  let run () = Fleet.run (quick_config ~cores:4 ~lb:Lb.Consistent_hash) in
  let a = run () and b = run () in
  Alcotest.(check bool) "tenant results repeat" true (a.Fleet.tenants = b.Fleet.tenants);
  Alcotest.(check bool) "shard results repeat" true (a.Fleet.shards = b.Fleet.shards);
  Alcotest.(check bool) "final modes repeat" true
    (Fleet.final_modes a = Fleet.final_modes b)

(* Connection ids follow the scheme in fleet.ml's header, and a
   [Consistent_hash] LB hashes the shard-free client id: under
   [Per_conn] scope each group is named after its client connection. *)
let test_fleet_connection_labels () =
  let group_ids cores =
    let r =
      Fleet.run
        { (quick_config ~cores ~lb:Lb.Consistent_hash) with Fleet.scope = Fleet.Per_conn }
    in
    List.map (fun g -> g.Fleet.g_id) r.Fleet.groups
  in
  let keys =
    List.concat_map
      (fun (t : Fleet.tenant) -> List.init t.n_conns (Printf.sprintf "%s/c%d" t.name))
      quick_tenants
  in
  Alcotest.(check (list string)) "unsharded" keys (group_ids 1);
  let lb = Lb.create ~policy:Lb.Consistent_hash ~shards:4 in
  Alcotest.(check (list string)) "sharded"
    (List.map (fun key -> Printf.sprintf "%s@s%d" key (Lb.assign lb ~key)) keys)
    (group_ids 4)

let test_fleet_cores_validation () =
  Alcotest.check_raises "zero cores"
    (Invalid_argument "Fleet.run: cores must be at least 1") (fun () ->
      ignore (Fleet.run (quick_config ~cores:0 ~lb:Lb.Round_robin)))

let suite =
  [
    ( "shard.flat",
      [
        Alcotest.test_case "alloc/free/reuse basics" `Quick test_flat_basics;
        Alcotest.test_case "growth preserves contents" `Quick test_flat_grow_preserves;
        Alcotest.test_case "ascending iteration survives frees" `Quick
          test_flat_iteration_order;
        QCheck_alcotest.to_alcotest prop_flat_model;
      ] );
    ( "shard.steer",
      [
        Alcotest.test_case "lookup in range, deterministic" `Quick
          test_steer_lookup_in_range;
        Alcotest.test_case "repin/unpin overrides" `Quick test_steer_repin;
        Alcotest.test_case "retable rebalances" `Quick test_steer_retable;
        QCheck_alcotest.to_alcotest prop_steer_hash_matches_table;
      ] );
    ( "shard.lb",
      [
        Alcotest.test_case "policy strings" `Quick test_lb_policy_strings;
        Alcotest.test_case "round robin cycles" `Quick test_lb_round_robin;
        Alcotest.test_case "least loaded ties low" `Quick test_lb_least_loaded;
        Alcotest.test_case "consistent hash ignores load history" `Quick
          test_lb_consistent_hash_deterministic;
        Alcotest.test_case "adding a shard remaps <= ~K/M keys" `Quick
          test_lb_consistent_hash_remap;
      ] );
    ( "shard.pool",
      [ Alcotest.test_case "layout and accessors" `Quick test_pool_layout ] );
    ( "shard.trace",
      [
        Alcotest.test_case "new events round-trip JSONL" `Quick
          test_shard_events_jsonl_roundtrip;
        Alcotest.test_case "new events round-trip binary" `Quick
          test_shard_events_binary_roundtrip;
        Alcotest.test_case "shard_of_id parses @s tags" `Quick test_shard_of_id;
        Alcotest.test_case "JSONL skips newer event kinds" `Quick
          test_jsonl_forward_compat;
        Alcotest.test_case "binary skips newer event kinds" `Quick
          test_binary_forward_compat;
      ] );
    ( "shard.fleet",
      [
        Alcotest.test_case "cores=1 reports one shard" `Quick
          test_fleet_cores1_single_shard;
        Alcotest.test_case "per-shard accounting partitions the fleet" `Quick
          test_fleet_sharded_accounting;
        Alcotest.test_case "sharded runs are deterministic" `Quick
          test_fleet_sharded_deterministic;
        Alcotest.test_case "cores validation" `Quick test_fleet_cores_validation;
        Alcotest.test_case "connection labels" `Quick test_fleet_connection_labels;
      ] );
  ]
