(* Tests for the Redis-like substrate: RESP codec, store semantics,
   command dispatch. *)

let ms = Sim.Time.ms

(* {1 Resp} *)

let roundtrip v =
  match Kv.Resp.parse_exactly (Kv.Resp.encode v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (Kv.Resp.equal v v')
  | Error e -> Alcotest.fail e

let test_resp_roundtrips () =
  roundtrip (Kv.Resp.Simple "OK");
  roundtrip (Kv.Resp.Error "ERR boom");
  roundtrip (Kv.Resp.Integer 42);
  roundtrip (Kv.Resp.Integer (-17));
  roundtrip (Kv.Resp.Bulk (Some "hello\r\nworld"));
  roundtrip (Kv.Resp.Bulk (Some ""));
  roundtrip (Kv.Resp.Bulk None);
  roundtrip (Kv.Resp.Array None);
  roundtrip (Kv.Resp.Array (Some []));
  roundtrip
    (Kv.Resp.Array
       (Some [ Kv.Resp.Bulk (Some "SET"); Kv.Resp.Integer 1; Kv.Resp.Simple "x" ]));
  roundtrip
    (Kv.Resp.Array (Some [ Kv.Resp.Array (Some [ Kv.Resp.Bulk (Some "nested") ]) ]))

let test_resp_wire_format () =
  Alcotest.(check string) "simple" "+OK\r\n" (Kv.Resp.encode (Kv.Resp.Simple "OK"));
  Alcotest.(check string) "bulk" "$5\r\nhello\r\n"
    (Kv.Resp.encode (Kv.Resp.Bulk (Some "hello")));
  Alcotest.(check string) "nil" "$-1\r\n" (Kv.Resp.encode (Kv.Resp.Bulk None));
  Alcotest.(check string) "array" "*1\r\n:7\r\n"
    (Kv.Resp.encode (Kv.Resp.Array (Some [ Kv.Resp.Integer 7 ])))

let test_resp_encoded_length () =
  List.iter
    (fun v ->
      Alcotest.(check int) "encoded_length agrees"
        (String.length (Kv.Resp.encode v))
        (Kv.Resp.encoded_length v))
    [
      Kv.Resp.Simple "PONG";
      Kv.Resp.Integer 12345;
      Kv.Resp.Bulk (Some (String.make 1000 'v'));
      Kv.Resp.Bulk None;
      Kv.Resp.Array (Some [ Kv.Resp.Bulk (Some "a"); Kv.Resp.Bulk (Some "bb") ]);
    ]

let test_resp_incremental_parsing () =
  let p = Kv.Resp.Parser.create () in
  let wire = Kv.Resp.encode (Kv.Resp.Bulk (Some "abcdefgh")) in
  (* feed byte by byte: must return Ok None until complete *)
  String.iteri
    (fun i c ->
      Kv.Resp.Parser.feed p (String.make 1 c);
      match Kv.Resp.Parser.next p with
      | Ok None when i < String.length wire - 1 -> ()
      | Ok (Some v) when i = String.length wire - 1 ->
        Alcotest.(check bool) "value" true (Kv.Resp.equal v (Kv.Resp.Bulk (Some "abcdefgh")))
      | Ok (Some _) -> Alcotest.fail "completed early"
      | Ok None -> Alcotest.fail "never completed"
      | Error e -> Alcotest.fail e)
    wire

let test_resp_pipelined_values () =
  let p = Kv.Resp.Parser.create () in
  Kv.Resp.Parser.feed p
    (Kv.Resp.encode (Kv.Resp.Simple "A") ^ Kv.Resp.encode (Kv.Resp.Integer 2)
    ^ Kv.Resp.encode (Kv.Resp.Bulk (Some "C")));
  let next () = Result.get_ok (Kv.Resp.Parser.next p) in
  Alcotest.(check bool) "first" true (next () = Some (Kv.Resp.Simple "A"));
  Alcotest.(check bool) "second" true (next () = Some (Kv.Resp.Integer 2));
  Alcotest.(check bool) "third" true (next () = Some (Kv.Resp.Bulk (Some "C")));
  Alcotest.(check bool) "drained" true (next () = None);
  Alcotest.(check int) "no leftover bytes" 0 (Kv.Resp.Parser.buffered p)

let test_resp_malformed () =
  let p = Kv.Resp.Parser.create () in
  Kv.Resp.Parser.feed p "!nonsense\r\n";
  (match Kv.Resp.Parser.next p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad type byte");
  (* parser stays failed *)
  match Kv.Resp.Parser.next p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "recovered silently"

let test_resp_bad_bulk_terminator () =
  match Kv.Resp.parse_exactly "$3\r\nabcXX" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad terminator"

(* Integers that do not fit in an [int], and bulk lengths above Redis's
   512 MiB limit, are protocol errors, not wrapped or waited on. *)
let test_resp_rejects_overflow () =
  let next_of wire =
    let p = Kv.Resp.Parser.create () in
    Kv.Resp.Parser.feed p wire;
    Kv.Resp.Parser.next p
  in
  List.iter
    (fun wire ->
      match next_of wire with
      | Error _ -> ()
      | Ok None -> Alcotest.failf "%S waits for more input" wire
      | Ok (Some v) -> Alcotest.failf "%S parsed as %a" wire Kv.Resp.pp v)
    [
      "$9223372036854775813\r\nhello\r\n";
      ":18446744073709551617\r\n";
      "*9223372036854775809\r\n:1\r\n";
      "$99999999999\r\n";
      "$536870913\r\n";
      ":4611686018427387904\r\n";
      ":-4611686018427387905\r\n";
    ];
  (* The limits themselves are accepted. *)
  Alcotest.(check bool) "max_int" true
    (next_of ":4611686018427387903\r\n" = Ok (Some (Kv.Resp.Integer max_int)));
  Alcotest.(check bool) "min_int" true
    (next_of ":-4611686018427387904\r\n" = Ok (Some (Kv.Resp.Integer min_int)));
  Alcotest.(check bool) "512 MiB bulk waits" true (next_of "$536870912\r\n" = Ok None)

let prop_resp_roundtrip =
  let gen_value =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          let leaf =
            oneof
              [
                map (fun s -> Kv.Resp.Simple s) (string_size ~gen:(char_range 'a' 'z') (0 -- 20));
                map (fun i -> Kv.Resp.Integer i) int;
                map (fun s -> Kv.Resp.Bulk (Some s)) (string_size (0 -- 64));
                return (Kv.Resp.Bulk None);
              ]
          in
          if n = 0 then leaf
          else
            oneof
              [ leaf; map (fun l -> Kv.Resp.Array (Some l)) (list_size (0 -- 4) (self (n / 2))) ]))
  in
  QCheck.Test.make ~name:"RESP roundtrip (arbitrary values)" ~count:300
    (QCheck.make gen_value)
    (fun v ->
      match Kv.Resp.parse_exactly (Kv.Resp.encode v) with
      | Ok v' -> Kv.Resp.equal v v'
      | Error _ -> false)

(* {1 Store} *)

let test_store_set_get () =
  let s = Kv.Store.create () in
  Kv.Store.set s ~now:0 "k" "v";
  Alcotest.(check (option string)) "get" (Some "v") (Kv.Store.get s ~now:0 "k");
  Alcotest.(check (option string)) "missing" None (Kv.Store.get s ~now:0 "nope")

let test_store_ttl_expiry () =
  let s = Kv.Store.create () in
  Kv.Store.set s ~now:0 ~ttl:(ms 100) "k" "v";
  Alcotest.(check (option string)) "before expiry" (Some "v")
    (Kv.Store.get s ~now:(ms 99) "k");
  Alcotest.(check (option string)) "after expiry" None (Kv.Store.get s ~now:(ms 100) "k");
  Alcotest.(check int) "expired not counted" 0 (Kv.Store.size s ~now:(ms 100))

let test_store_delete_exists () =
  let s = Kv.Store.create () in
  Kv.Store.set s ~now:0 "a" "1";
  Kv.Store.set s ~now:0 "b" "2";
  Alcotest.(check int) "exists" 2 (Kv.Store.exists s ~now:0 [ "a"; "b"; "c" ]);
  Alcotest.(check int) "deleted" 1 (Kv.Store.delete s ~now:0 [ "a"; "zz" ]);
  Alcotest.(check int) "one left" 1 (Kv.Store.size s ~now:0)

let test_store_append_strlen () =
  let s = Kv.Store.create () in
  Alcotest.(check int) "append to missing" 3 (Kv.Store.append s ~now:0 "k" "abc");
  Alcotest.(check int) "append more" 6 (Kv.Store.append s ~now:0 "k" "def");
  Alcotest.(check int) "strlen" 6 (Kv.Store.strlen s ~now:0 "k");
  Alcotest.(check int) "strlen missing" 0 (Kv.Store.strlen s ~now:0 "none")

let test_store_incr () =
  let s = Kv.Store.create () in
  Alcotest.(check (result int string)) "incr from missing" (Ok 1)
    (Kv.Store.incr_by s ~now:0 "n" 1);
  Alcotest.(check (result int string)) "incr by 10" (Ok 11)
    (Kv.Store.incr_by s ~now:0 "n" 10);
  Kv.Store.set s ~now:0 "s" "not-a-number";
  match Kv.Store.incr_by s ~now:0 "s" 1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "incremented a string"

let test_store_setnx_getset () =
  let s = Kv.Store.create () in
  Alcotest.(check bool) "setnx fresh" true (Kv.Store.setnx s ~now:0 "k" "1");
  Alcotest.(check bool) "setnx existing" false (Kv.Store.setnx s ~now:0 "k" "2");
  Alcotest.(check (option string)) "getset returns old" (Some "1")
    (Kv.Store.getset s ~now:0 "k" "3");
  Alcotest.(check (option string)) "getset stored new" (Some "3")
    (Kv.Store.get s ~now:0 "k")

let test_store_expire_ttl_queries () =
  let s = Kv.Store.create () in
  Kv.Store.set s ~now:0 "k" "v";
  Alcotest.(check bool) "expire existing" true (Kv.Store.expire s ~now:0 "k" ~ttl:(ms 500));
  Alcotest.(check bool) "expire missing" false
    (Kv.Store.expire s ~now:0 "gone" ~ttl:(ms 500));
  (match Kv.Store.ttl s ~now:(ms 100) "k" with
  | `Ttl t -> Alcotest.(check int) "remaining" (ms 400) t
  | _ -> Alcotest.fail "expected ttl");
  Kv.Store.set s ~now:0 "p" "v";
  Alcotest.(check bool) "no ttl" true (Kv.Store.ttl s ~now:0 "p" = `No_ttl);
  Alcotest.(check bool) "missing" true (Kv.Store.ttl s ~now:0 "zz" = `Missing)

let test_store_keys_glob () =
  let s = Kv.Store.create () in
  List.iter (fun k -> Kv.Store.set s ~now:0 k "v") [ "user:1"; "user:2"; "sess:1" ];
  Alcotest.(check (list string)) "prefix glob" [ "user:1"; "user:2" ]
    (Kv.Store.keys_matching s ~now:0 ~pattern:"user:*");
  Alcotest.(check (list string)) "question mark" [ "sess:1"; "user:1" ]
    (Kv.Store.keys_matching s ~now:0 ~pattern:"????:1");
  Alcotest.(check (list string)) "star matches all" [ "sess:1"; "user:1"; "user:2" ]
    (Kv.Store.keys_matching s ~now:0 ~pattern:"*")

let test_store_flush () =
  let s = Kv.Store.create () in
  Kv.Store.set s ~now:0 "k" "v";
  Kv.Store.flush s;
  Alcotest.(check int) "empty" 0 (Kv.Store.size s ~now:0)

(* {1 Command} *)

let exec store cmd = Kv.Command.execute store ~now:0 cmd

let test_command_roundtrip_encoding () =
  let cmds =
    [
      Kv.Command.Ping;
      Kv.Command.Echo "hello";
      Kv.Command.Set { key = "k"; value = "v"; ttl = None };
      Kv.Command.Set { key = "k"; value = "v"; ttl = Some (ms 250) };
      Kv.Command.Get "k";
      Kv.Command.Del [ "a"; "b" ];
      Kv.Command.Exists [ "a" ];
      Kv.Command.Append { key = "k"; value = "v" };
      Kv.Command.Strlen "k";
      Kv.Command.Incr "n";
      Kv.Command.Decr "n";
      Kv.Command.Incrby { key = "n"; delta = 5 };
      Kv.Command.Mset [ ("a", "1"); ("b", "2") ];
      Kv.Command.Mget [ "a"; "b" ];
      Kv.Command.Setnx { key = "k"; value = "v" };
      Kv.Command.Getset { key = "k"; value = "v" };
      Kv.Command.Expire { key = "k"; seconds = 10 };
      Kv.Command.Ttl "k";
      Kv.Command.Dbsize;
      Kv.Command.Flushall;
      Kv.Command.Keys "*";
    ]
  in
  List.iter
    (fun cmd ->
      match Kv.Command.of_resp (Kv.Command.to_resp cmd) with
      | Ok cmd' when cmd = cmd' -> ()
      | Ok _ -> Alcotest.failf "roundtrip changed %s" (Kv.Command.name cmd)
      | Error e -> Alcotest.failf "%s: %s" (Kv.Command.name cmd) e)
    cmds

(* Keys and values are arbitrary bytes: empty, CRLF inside, any byte. *)
let gen_bytes =
  QCheck.Gen.(
    frequency
      [
        (4, string_size ~gen:char (0 -- 24));
        (1, return "");
        (1, map (fun s -> s ^ "\r\n" ^ s) (string_size ~gen:char (0 -- 8)));
      ])

let gen_command ~value =
  QCheck.Gen.(
    let key = gen_bytes in
    let keys = list_size (0 -- 4) key in
    let ttl = opt (map Sim.Time.us (0 -- 10_000_000)) in
    oneof
      [
        return Kv.Command.Ping;
        map (fun s -> Kv.Command.Echo s) value;
        map3 (fun key value ttl -> Kv.Command.Set { key; value; ttl }) key value ttl;
        map (fun k -> Kv.Command.Get k) key;
        map (fun ks -> Kv.Command.Del ks) keys;
        map (fun ks -> Kv.Command.Exists ks) keys;
        map2 (fun key value -> Kv.Command.Append { key; value }) key value;
        map (fun k -> Kv.Command.Strlen k) key;
        map (fun k -> Kv.Command.Incr k) key;
        map (fun k -> Kv.Command.Decr k) key;
        map2 (fun key delta -> Kv.Command.Incrby { key; delta }) key int;
        map (fun ps -> Kv.Command.Mset ps) (list_size (0 -- 3) (pair key value));
        map (fun ks -> Kv.Command.Mget ks) keys;
        map2 (fun key value -> Kv.Command.Setnx { key; value }) key value;
        map2 (fun key value -> Kv.Command.Getset { key; value }) key value;
        map2 (fun key seconds -> Kv.Command.Expire { key; seconds }) key int;
        map (fun k -> Kv.Command.Ttl k) key;
        return Kv.Command.Dbsize;
        return Kv.Command.Flushall;
        map (fun p -> Kv.Command.Keys p) key;
      ])

let arb_command ~value =
  QCheck.make ~print:(fun c -> Kv.Resp.encode (Kv.Command.to_resp c)) (gen_command ~value)

let prop_command_encode_matches_resp =
  QCheck.Test.make ~name:"Command.encode = Resp.encode (to_resp _)" ~count:2000
    (arb_command ~value:gen_bytes)
    (fun c ->
      let wire = Kv.Command.encode c in
      String.equal wire (Kv.Resp.encode (Kv.Command.to_resp c))
      && String.length wire = Kv.Command.request_bytes c)

(* Encoded commands, concatenated and cut at random widths into views
   of one string (so slices start mid-string), decode through the
   parser's input exactly as each decodes alone. *)
let prop_command_stream_any_cuts =
  let value =
    QCheck.Gen.(frequency [ (6, gen_bytes); (1, map (fun c -> String.make 16_384 c) char) ])
  in
  QCheck.Test.make ~name:"command stream decodes the same under any cuts" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 8) (arb_command ~value))
        (list_of_size Gen.(1 -- 20)
           (make Gen.(frequency [ (4, int_range 1 30); (1, int_range 31 5000) ]))))
    (fun (cmds, cuts) ->
      let wires = List.map Kv.Command.encode cmds in
      let expected =
        List.map (fun w -> Result.bind (Kv.Resp.parse_exactly w) Kv.Command.of_resp) wires
      in
      let whole = Tcp.Slice.of_string (String.concat "" wires) in
      let parser = Kv.Resp.Parser.create () in
      let decoded = ref [] in
      let rec drain () =
        match Kv.Resp.Parser.next parser with
        | Ok (Some v) ->
          decoded := Kv.Command.of_resp v :: !decoded;
          drain ()
        | Ok None -> ()
        | Error e -> failwith e
      in
      let rec feed pos cuts =
        if pos < Tcp.Slice.length whole then begin
          let w, rest = match cuts with w :: rest -> (w, rest @ [ w ]) | [] -> (7, []) in
          let n = min w (Tcp.Slice.length whole - pos) in
          Tcp.Bytebuf.append_slice (Kv.Resp.Parser.input parser) (Tcp.Slice.sub whole pos n);
          drain ();
          feed (pos + n) rest
        end
      in
      feed 0 cuts;
      List.rev !decoded = expected && Kv.Resp.Parser.buffered parser = 0)

(* Values around the shared-bulk cut-off, and the paper's 16 KiB. *)
let gen_mixed_value =
  QCheck.Gen.(
    frequency
      [
        (4, gen_bytes);
        ( 2,
          map2
            (fun n c -> String.make n c)
            (oneofl
               [ Kv.Resp.shared_bulk_min - 1; Kv.Resp.shared_bulk_min;
                 Kv.Resp.shared_bulk_min + 1; 16_384 ])
            char );
      ])

let views_to_string views = String.concat "" (List.map Tcp.Slice.to_string views)

(* Whether a bulk this long is sent as a view of itself. *)
let shares s = String.length s >= Kv.Resp.shared_bulk_min

let args_of c =
  match Kv.Command.to_resp c with
  | Kv.Resp.Array (Some (_ :: args)) ->
    List.filter_map (function Kv.Resp.Bulk s -> s | _ -> None) args
  | _ -> []

(* The views a request is sent as spell exactly [Resp.encode (to_resp
   _)], and each argument of shared size is a view of the argument
   itself. *)
let prop_command_encode_slices_matches_resp =
  QCheck.Test.make ~name:"Command.encode_slices = Resp.encode (to_resp _)" ~count:1000
    (arb_command ~value:gen_mixed_value)
    (fun c ->
      let views = Kv.Command.encode_slices c in
      let shared = List.filter shares (args_of c) in
      String.equal (views_to_string views) (Kv.Resp.encode (Kv.Command.to_resp c))
      && List.for_all (fun v -> Tcp.Slice.length v > 0) views
      && List.for_all
           (fun s -> List.exists (fun (v : Tcp.Slice.t) -> v.base == s) views)
           shared
      && List.length views = if shared = [] then 1 else 1 + (2 * List.length shared))

(* The same for replies, over arbitrary nested values. *)
let prop_resp_encode_slices =
  let gen_value =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          let leaf =
            oneof
              [
                map (fun s -> Kv.Resp.Simple s) (string_size ~gen:(char_range 'a' 'z') (0 -- 8));
                map (fun i -> Kv.Resp.Integer i) int;
                map (fun s -> Kv.Resp.Bulk (Some s)) gen_mixed_value;
                return (Kv.Resp.Bulk None);
                return (Kv.Resp.Array None);
              ]
          in
          if n = 0 then leaf
          else
            oneof
              [ leaf; map (fun l -> Kv.Resp.Array (Some l)) (list_size (0 -- 4) (self (n / 2))) ]))
  in
  QCheck.Test.make ~name:"Resp.encode_slices spells Resp.encode" ~count:300
    (QCheck.make gen_value)
    (fun v ->
      let views = Kv.Resp.encode_slices v in
      String.equal (views_to_string views) (Kv.Resp.encode v)
      && List.for_all (fun s -> Tcp.Slice.length s > 0) views)

(* Requests sent as views, cut at random offsets into narrower views,
   decode exactly as [parse_exactly] decodes each alone.  Some
   requests have a middle stretch of their shared-size argument
   replaced, either by a copy (the bulk spans two strings) or by a view
   of the same string at another offset (equal bytes, since generated
   shared values repeat one character, but not one run of the string):
   those must come back as equal copies, the intact ones as the
   argument itself. *)
let prop_command_stream_views =
  QCheck.Test.make ~name:"command stream of views decodes the same under any cuts"
    ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 6)
           (pair (arb_command ~value:gen_mixed_value)
              (make ~print:(Printf.sprintf "gap=%d") Gen.(int_range 0 2))))
        (list_of_size Gen.(1 -- 20)
           (make ~print:string_of_int
              Gen.(frequency [ (4, int_range 1 30); (1, int_range 31 5000) ]))))
    (fun (cmds, cuts) ->
      let gap c kind (v : Tcp.Slice.t) =
        if shares v.base && List.memq v.base (args_of c) then
          let a = v.len / 3 and b = 2 * v.len / 3 in
          let middle =
            if kind = 1 then Tcp.Slice.of_string (String.sub v.base a (b - a))
            else Tcp.Slice.sub v 0 (b - a)
          in
          [ Tcp.Slice.sub v 0 a; middle; Tcp.Slice.sub v b (v.len - b) ]
        else [ v ]
      in
      let views =
        List.concat_map
          (fun (c, kind) ->
            let vs = Kv.Command.encode_slices c in
            if kind > 0 then List.concat_map (gap c kind) vs else vs)
          cmds
      in
      let expected =
        List.map
          (fun (c, _) ->
            Result.bind
              (Kv.Resp.parse_exactly (Kv.Resp.encode (Kv.Command.to_resp c)))
              Kv.Command.of_resp)
          cmds
      in
      let parser = Kv.Resp.Parser.create () in
      let input = Kv.Resp.Parser.input parser in
      let decoded = ref [] in
      let rec drain () =
        match Kv.Resp.Parser.next parser with
        | Ok (Some v) ->
          decoded := Kv.Command.of_resp v :: !decoded;
          drain ()
        | Ok None -> ()
        | Error e -> failwith e
      in
      (* Append [v] in pieces of the cut widths, draining after each. *)
      let rec feed (v : Tcp.Slice.t) cuts =
        if v.len = 0 then cuts
        else begin
          let w, cuts = match cuts with w :: rest -> (w, rest @ [ w ]) | [] -> (7, []) in
          let n = min w v.len in
          Tcp.Bytebuf.append_slice input (Tcp.Slice.sub v 0 n);
          drain ();
          feed (Tcp.Slice.sub v n (v.len - n)) cuts
        end
      in
      ignore (List.fold_left (fun cuts v -> feed v cuts) cuts views);
      let decoded = List.rev !decoded in
      let shared_as_sent (c, kind) got =
        match got with
        | Ok got ->
          List.for_all2
            (fun sent arg -> (not (shares sent)) || (sent == arg) = (kind = 0))
            (args_of c) (args_of got)
        | Error _ -> true
      in
      decoded = expected
      && Kv.Resp.Parser.buffered parser = 0
      && List.for_all2 shared_as_sent cmds decoded)

(* A 16 KiB value crosses the stack uncopied in both directions: the
   store keeps the workload's own string, and the GET reply the client
   parses is the stored string — also with TSO super-segments cut at
   the wire and with loss forcing retransmissions, trims and
   out-of-order reassembly. *)
let test_value_crosses_uncopied () =
  let workload = Loadgen.Workload.paper_set_only in
  let value = Loadgen.Workload.value_of workload in
  let key = String.make workload.key_size 'k' in
  let run ~tso ~loss =
    let engine = Sim.Engine.create () in
    let host =
      { Tcp.Conn.default_host with
        socket = { Tcp.Socket.default_config with nagle = false; tso_max = tso } }
    in
    let conn = Tcp.Conn.create engine ~a:host ~b:host () in
    if loss > 0.0 then begin
      Tcp.Link.set_loss (Tcp.Conn.link_ab conn) ~rng:(Sim.Rng.create ~seed:3) ~prob:loss;
      Tcp.Link.set_loss (Tcp.Conn.link_ba conn) ~rng:(Sim.Rng.create ~seed:4) ~prob:loss
    end;
    let store = Kv.Store.create () in
    ignore
      (Kv.Server.create engine ~cpu:(Sim.Cpu.create engine) ~socket:(Tcp.Conn.sock_b conn)
         ~store Kv.Server.default_config);
    let client =
      Kv.Client.create engine ~cpu:(Sim.Cpu.create engine) ~socket:(Tcp.Conn.sock_a conn)
        Kv.Client.default_config
    in
    let replies = ref [] in
    let request cmd =
      Kv.Client.request client cmd ~on_complete:(fun ~latency:_ r -> replies := r :: !replies);
      Sim.Engine.run engine
    in
    request (Kv.Command.Set { key; value; ttl = None });
    let stored = Kv.Store.get store ~now:(Sim.Engine.now engine) key in
    request (Kv.Command.Get key);
    let label = Printf.sprintf "tso=%b loss=%.2f" (Option.is_some tso) loss in
    let retransmits =
      (Tcp.Socket.counters (Tcp.Conn.sock_a conn)).retransmits
      + (Tcp.Socket.counters (Tcp.Conn.sock_b conn)).retransmits
    in
    Alcotest.(check bool) (label ^ ": retransmits iff lossy") (loss > 0.0) (retransmits > 0);
    Alcotest.(check int) (label ^ ": both replied") 2 (List.length !replies);
    Alcotest.(check bool) (label ^ ": stored value is the workload's string") true
      (match stored with Some s -> s == value | None -> false);
    Alcotest.(check bool) (label ^ ": GET reply is the stored string") true
      (match (!replies, stored) with
      | Kv.Resp.Bulk (Some got) :: _, Some s -> got == s
      | _ -> false)
  in
  run ~tso:None ~loss:0.0;
  run ~tso:(Some 65_536) ~loss:0.0;
  run ~tso:None ~loss:0.2;
  run ~tso:(Some 65_536) ~loss:0.2

let test_command_case_insensitive () =
  match
    Kv.Command.of_resp
      (Kv.Resp.Array (Some [ Kv.Resp.Bulk (Some "get"); Kv.Resp.Bulk (Some "k") ]))
  with
  | Ok (Kv.Command.Get "k") -> ()
  | _ -> Alcotest.fail "lowercase get rejected"

(* Any spelling of a known name decodes to the same command, and
   allocates no more than the upper-case spelling: the name is not
   copied to be compared.  A GET allocates only its result, [Ok] and
   [Get] of two words each. *)
let test_command_names_without_copies () =
  let request parts = Kv.Resp.Array (Some (List.map (fun s -> Kv.Resp.Bulk (Some s)) parts)) in
  let words_of v =
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity (Kv.Command.of_resp v))
    done;
    (Gc.minor_words () -. before) /. 1000.0
  in
  List.iter
    (fun (upper, other) ->
      let a = request upper and b = request other in
      Alcotest.(check bool)
        (String.concat " " other ^ " decodes")
        true
        (Kv.Command.of_resp a = Kv.Command.of_resp b && Result.is_ok (Kv.Command.of_resp b));
      Alcotest.(check (float 0.0)) (String.concat " " other ^ " words") (words_of a) (words_of b))
    [
      ([ "GET"; "k" ], [ "gEt"; "k" ]);
      ([ "SET"; "k"; "v" ], [ "set"; "k"; "v" ]);
      ([ "SET"; "k"; "v"; "PX"; "250" ], [ "Set"; "k"; "v"; "px"; "250" ]);
      ([ "FLUSHALL" ], [ "flushAll" ]);
    ];
  Alcotest.(check (float 0.0)) "GET words" 4.0 (words_of (request [ "get"; "k" ]))

let test_command_unknown_and_arity () =
  (match
     Kv.Command.of_resp (Kv.Resp.Array (Some [ Kv.Resp.Bulk (Some "WAT") ]))
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown accepted");
  match
    Kv.Command.of_resp (Kv.Resp.Array (Some [ Kv.Resp.Bulk (Some "GET") ]))
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad arity accepted"

let test_command_execute_flow () =
  let s = Kv.Store.create () in
  Alcotest.(check bool) "ping" true (exec s Kv.Command.Ping = Kv.Resp.Simple "PONG");
  Alcotest.(check bool) "set" true
    (exec s (Kv.Command.Set { key = "k"; value = "v"; ttl = None }) = Kv.Resp.Simple "OK");
  Alcotest.(check bool) "get hit" true
    (exec s (Kv.Command.Get "k") = Kv.Resp.Bulk (Some "v"));
  Alcotest.(check bool) "get miss" true
    (exec s (Kv.Command.Get "zz") = Kv.Resp.Bulk None);
  Alcotest.(check bool) "incr" true (exec s (Kv.Command.Incr "n") = Kv.Resp.Integer 1);
  Alcotest.(check bool) "incr error is RESP error" true
    (match exec s (Kv.Command.Incr "k") with Kv.Resp.Error _ -> true | _ -> false);
  Alcotest.(check bool) "mget" true
    (exec s (Kv.Command.Mget [ "k"; "zz" ])
    = Kv.Resp.Array (Some [ Kv.Resp.Bulk (Some "v"); Kv.Resp.Bulk None ]));
  Alcotest.(check bool) "dbsize" true
    (match exec s Kv.Command.Dbsize with Kv.Resp.Integer n -> n >= 1 | _ -> false)

let test_command_request_bytes_realism () =
  (* The Figure-4 workload: 16B key, 16KiB value — request must be a
     little over 16 KiB on the wire. *)
  let cmd =
    Kv.Command.Set { key = String.make 16 'k'; value = String.make 16384 'v'; ttl = None }
  in
  let n = Kv.Command.request_bytes cmd in
  Alcotest.(check bool) "between 16424 and 16480" true (n > 16420 && n < 16480)

(* A socket's estimator is built at its full size: shares, hints and
   queue updates overwrite it in place, so 99 more SET round trips after
   the first leave it exactly as many words, at both ends. *)
let test_estimator_does_not_grow () =
  let engine = Sim.Engine.create () in
  let conn = Tcp.Conn.create engine () in
  let cpu = Sim.Cpu.create engine in
  ignore (Kv.Server.create engine ~cpu ~socket:(Tcp.Conn.sock_b conn) Kv.Server.default_config);
  let client =
    Kv.Client.create engine ~cpu ~socket:(Tcp.Conn.sock_a conn) Kv.Client.default_config
  in
  let set = Kv.Command.Set { key = "k"; value = String.make 64 'v'; ttl = None } in
  let round_trips n =
    for _ = 1 to n do
      Kv.Client.request client set ~on_complete:(fun ~latency:_ _ -> ());
      Sim.Engine.run engine
    done
  in
  let words sock = Obj.reachable_words (Obj.repr (Tcp.Socket.estimator sock)) in
  round_trips 1;
  let client_words = words (Tcp.Conn.sock_a conn) in
  let server_words = words (Tcp.Conn.sock_b conn) in
  round_trips 99;
  Alcotest.(check int) "client estimator" client_words (words (Tcp.Conn.sock_a conn));
  Alcotest.(check int) "server estimator" server_words (words (Tcp.Conn.sock_b conn));
  Alcotest.(check int) "all replied" 100 (Kv.Client.completed client)

(* Loss recovery, persist probing, teardown and cork state live in a
   record a socket builds the first time it writes any of it: 500 SET
   round trips on a clean connection leave both ends without one, while
   a loss, a close and a closed receive window each build it. *)
let test_cold_state_on_first_use () =
  let cold sock = Tcp.Socket.has_cold_state sock in
  let kv_conn ?loss () =
    let engine = Sim.Engine.create () in
    let conn = Tcp.Conn.create engine () in
    Option.iter
      (fun prob ->
        Tcp.Link.set_loss (Tcp.Conn.link_ab conn) ~rng:(Sim.Rng.create ~seed:5) ~prob)
      loss;
    let cpu = Sim.Cpu.create engine in
    ignore (Kv.Server.create engine ~cpu ~socket:(Tcp.Conn.sock_b conn) Kv.Server.default_config);
    let client =
      Kv.Client.create engine ~cpu ~socket:(Tcp.Conn.sock_a conn) Kv.Client.default_config
    in
    let set = Kv.Command.Set { key = "k"; value = String.make 64 'v'; ttl = None } in
    let round_trips n =
      for _ = 1 to n do
        Kv.Client.request client set ~on_complete:(fun ~latency:_ _ -> ());
        Sim.Engine.run engine
      done
    in
    (engine, conn, client, round_trips)
  in
  let _, conn, client, round_trips = kv_conn () in
  round_trips 500;
  Alcotest.(check int) "all replied" 500 (Kv.Client.completed client);
  Alcotest.(check bool) "clean client end" false (cold (Tcp.Conn.sock_a conn));
  Alcotest.(check bool) "clean server end" false (cold (Tcp.Conn.sock_b conn));
  (* loss: the client retransmits *)
  let _, conn, client, round_trips = kv_conn ~loss:0.2 () in
  round_trips 50;
  Alcotest.(check int) "lossy: all replied" 50 (Kv.Client.completed client);
  Alcotest.(check bool) "retransmitted" true
    ((Tcp.Socket.counters (Tcp.Conn.sock_a conn)).retransmits > 0);
  Alcotest.(check bool) "loss builds it" true (cold (Tcp.Conn.sock_a conn));
  (* close: the closer builds it at once, the peer when the FIN lands *)
  let engine, conn, _, round_trips = kv_conn () in
  round_trips 5;
  Tcp.Socket.close (Tcp.Conn.sock_a conn);
  Alcotest.(check bool) "close builds it" true (cold (Tcp.Conn.sock_a conn));
  Sim.Engine.run engine;
  Alcotest.(check bool) "a FIN builds it" true (cold (Tcp.Conn.sock_b conn));
  (* zero window: a receiver that never reads shuts the sender out *)
  let engine = Sim.Engine.create () in
  let host =
    { Tcp.Conn.default_host with
      socket = { Tcp.Socket.default_config with rcv_buf = 16 * 1024 } }
  in
  let conn = Tcp.Conn.create engine ~a:host ~b:host () in
  Tcp.Socket.send (Tcp.Conn.sock_a conn) (String.make (64 * 1024) 'z');
  Sim.Engine.run_until engine (Sim.Time.sec 5);
  let a = Tcp.Conn.sock_a conn in
  Alcotest.(check bool) "sender still holds data" true (Tcp.Socket.unsent_bytes a > 0);
  Alcotest.(check bool) "window probes sent" true ((Tcp.Socket.counters a).probes_sent > 0);
  Alcotest.(check bool) "zero window builds it" true (cold a);
  (* the shared default record took none of those writes *)
  let fresh = Tcp.Conn.sock_a (Tcp.Conn.create (Sim.Engine.create ()) ()) in
  let c = Tcp.Socket.counters fresh in
  Alcotest.(check (list int)) "defaults intact" [ 0; 0; 0; 0; 0; 0; 0 ]
    [ c.cork_holds; c.retransmits; c.rto_fires; c.fast_retransmits; c.sack_retransmits;
      c.probes_sent; c.challenges_sent ];
  Alcotest.(check bool) "no FIN seen" false (Tcp.Socket.eof fresh)

let suite =
  [
    ( "kv.resp",
      [
        Alcotest.test_case "value roundtrips" `Quick test_resp_roundtrips;
        Alcotest.test_case "wire format" `Quick test_resp_wire_format;
        Alcotest.test_case "encoded_length" `Quick test_resp_encoded_length;
        Alcotest.test_case "incremental parsing" `Quick test_resp_incremental_parsing;
        Alcotest.test_case "pipelined values" `Quick test_resp_pipelined_values;
        Alcotest.test_case "malformed input" `Quick test_resp_malformed;
        Alcotest.test_case "bad bulk terminator" `Quick test_resp_bad_bulk_terminator;
        Alcotest.test_case "integer overflow and bulk limit" `Quick test_resp_rejects_overflow;
        QCheck_alcotest.to_alcotest prop_resp_roundtrip;
      ] );
    ( "kv.store",
      [
        Alcotest.test_case "set/get" `Quick test_store_set_get;
        Alcotest.test_case "ttl expiry" `Quick test_store_ttl_expiry;
        Alcotest.test_case "delete/exists" `Quick test_store_delete_exists;
        Alcotest.test_case "append/strlen" `Quick test_store_append_strlen;
        Alcotest.test_case "incr semantics" `Quick test_store_incr;
        Alcotest.test_case "setnx/getset" `Quick test_store_setnx_getset;
        Alcotest.test_case "expire/ttl queries" `Quick test_store_expire_ttl_queries;
        Alcotest.test_case "keys glob" `Quick test_store_keys_glob;
        Alcotest.test_case "flush" `Quick test_store_flush;
      ] );
    ( "kv.command",
      [
        Alcotest.test_case "encode/decode roundtrip" `Quick test_command_roundtrip_encoding;
        QCheck_alcotest.to_alcotest prop_command_encode_matches_resp;
        QCheck_alcotest.to_alcotest prop_command_stream_any_cuts;
        QCheck_alcotest.to_alcotest prop_command_encode_slices_matches_resp;
        QCheck_alcotest.to_alcotest prop_resp_encode_slices;
        QCheck_alcotest.to_alcotest prop_command_stream_views;
        Alcotest.test_case "16 KiB value crosses uncopied" `Quick test_value_crosses_uncopied;
        Alcotest.test_case "estimators do not grow with traffic" `Quick
          test_estimator_does_not_grow;
        Alcotest.test_case "cold socket state is built on first use" `Quick
          test_cold_state_on_first_use;
        Alcotest.test_case "case-insensitive names" `Quick test_command_case_insensitive;
        Alcotest.test_case "unknown command / bad arity" `Quick
          test_command_unknown_and_arity;
        Alcotest.test_case "names decode without copies" `Quick
          test_command_names_without_copies;
        Alcotest.test_case "execute flow" `Quick test_command_execute_flow;
        Alcotest.test_case "Figure-4 request size" `Quick
          test_command_request_bytes_realism;
      ] );
  ]
