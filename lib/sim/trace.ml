(* Typed structured tracing: a bounded ring of (time, id, event) records
   with JSONL export/import.  The enabled check must come before any
   allocation so that call sites guarded by [enabled] (or going through
   [emitf]) pay nothing when tracing is off. *)

type event =
  | Segment_sent of { seq : int; len : int; push : bool; retx : bool }
  | Segment_received of { seq : int; fresh : int }
  | Ack_received of { acked : int; una : int }
  | Nagle_hold of { chunk : int; in_flight : int }
  | Nagle_toggle of { enabled : bool }
  | Cork_hold of { chunk : int }
  | Delack_fire of { pending : int }
  | Delack_cancel of { pending : int }
  | Fin_received of { rcv_nxt : int }
  | Segment_dropped of { seq : int; len : int; reason : string }
  | Segment_reordered of { seq : int; delay_us : float }
  | Segment_duplicated of { seq : int }
  | Segment_challenged of { seq : int; kind : string }
  | Probe_sent of { seq : int; backoff : int }
  | Share_corrupted of { seq : int }
  | Share_rejected of { reason : string }
  | Share_ingested of {
      unacked_total : int;
      unread_total : int;
      ackdelay_total : int;
    }
  | Estimate_computed of {
      latency_us : float option;
      throughput : float;
      window_us : float;
    }
  | Request_done of { latency_us : float }
  | Req_issued of { req : int; off : int; len : int }
  | Req_sent of { req : int }
  | Req_complete of { req : int }
  | Srv_start of { req : int }
  | Srv_reply of { req : int; off : int; len : int }
  | Audit_window of {
      queue : string;
      l_avg : float;
      lambda_per_s : float;
      w_us : float;
      rel_err : float;
    }
  | Message of { tag : string; detail : string }
  | Decision_made of {
      decision : int;  (** sequence number within the emitting group *)
      on_us : float option;  (** smoothed estimate for the Batch_on arm *)
      off_us : float option;  (** smoothed estimate for the Batch_off arm *)
      mode : string;  (** mode in force when the decision was taken *)
      action : string;  (** mode/limit chosen by the decision *)
      reason : string;  (** explore/exploit/undersampled/forced/good/bad/hold *)
      frozen : bool;  (** degrade freeze in force *)
      stale_us : float;  (** age of the freshest remote share; -1 = unknown *)
    }
  | Decision_outcome of {
      decision : int;  (** the [Decision_made] this realizes *)
      mean_us : float;
      p99_us : float;
      n : int;  (** completions observed during the tenure *)
    }
  | Conn_opened of {
      gen : int;  (** per-tenant connection generation counter *)
      inherited : bool;  (** group prior adopted (estimator cold-start) *)
    }
  | Conn_closed of {
      gen : int;
      completed : int;  (** requests completed over the connection's life *)
    }
  | Lb_assigned of {
      shard : int;  (** backend shard the load balancer picked *)
      policy : string;  (** round_robin / consistent_hash / least_loaded *)
    }
  | Shard_enqueued of {
      shard : int;
      depth : int;  (** shard dispatch-queue depth after this enqueue *)
    }

type record = { at : Time.t; id : string; event : event }

type t = {
  capacity : int;
  mutable enabled : bool;
  mutable buf : record option array;
  mutable next : int;
  mutable count : int;
  mutable emitted : int;
  mutable sink : (record -> unit) option;
  mutable sunk : int;
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    capacity;
    enabled = false;
    buf = Array.make capacity None;
    next = 0;
    count = 0;
    emitted = 0;
    sink = None;
    sunk = 0;
  }

let enabled t = t.enabled
let set_enabled t v = t.enabled <- v
let capacity t = t.capacity
let emitted t = t.emitted
let dropped t = t.emitted - t.count - t.sunk
let set_sink t sink = t.sink <- sink
let sunk t = t.sunk

let event t ~at ~id ev =
  if t.enabled then begin
    (match t.sink with
    | None ->
        t.buf.(t.next) <- Some { at; id; event = ev };
        t.next <- (t.next + 1) mod t.capacity;
        if t.count < t.capacity then t.count <- t.count + 1
    | Some f ->
        t.sunk <- t.sunk + 1;
        f { at; id; event = ev });
    t.emitted <- t.emitted + 1
  end

let emit t ~at ~tag ~detail =
  if t.enabled then event t ~at ~id:"" (Message { tag; detail })

let emitf t ~at ~tag fmt =
  if t.enabled then
    Format.kasprintf (fun detail -> emit t ~at ~tag ~detail) fmt
  else
    (* Consume the format arguments without evaluating them. *)
    Format.ikfprintf ignore Format.str_formatter fmt

let iter t f =
  let start = if t.count = t.capacity then t.next else 0 in
  for i = 0 to t.count - 1 do
    match t.buf.((start + i) mod t.capacity) with
    | Some r -> f r
    | None -> ()
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun r -> acc := f !acc r);
  !acc

let records t = List.rev (fold t ~init:[] ~f:(fun acc r -> r :: acc))

(* Fleet runs tag every emitter id with its tenant: ["bare/c0"].  The
   slash cannot appear in the single-run "c0"/"s0" labels, so pre-fleet
   traces simply have no tenant. *)
let tenant_of_id id =
  match String.index_opt id '/' with
  | Some i when i > 0 -> Some (String.sub id 0 i)
  | Some _ | None -> None

(* Sharded fleet runs suffix ids with the backend shard: ["bare/c0@s3"].
   Single-shard runs keep the unsuffixed labels, so pre-sharding traces
   simply have no shard. *)
let shard_of_id id =
  match String.rindex_opt id '@' with
  | Some i
    when i + 2 < String.length id && id.[i + 1] = 's' ->
      int_of_string_opt (String.sub id (i + 2) (String.length id - i - 2))
  | Some _ | None -> None


(* {1 The event schema}

   One entry per [event] constructor, in declaration order.  An entry
   gives the JSONL ["ev"] name, the binary kind code and the typed
   fields in binary payload order, which is also the JSONL key order.
   [read] copies a constructor's fields into [slots] (field [k] into
   index [k] of the array its type uses) and [build] makes the
   constructor back from them.  [tag], [detail], both JSONL directions
   and the binary writer and reader are generic interpreters over these
   entries. *)

type ty = I64 | Num | F64 | Bool of int | Ev_bit of int | Str | Fopt of int
type field = { key : string; ty : ty }
type slots = { i : int array; f : float array; s : string array }

type entry = {
  ev : string;
  kind : int;
  verbatim : bool;
  fields : field array;
  read : slots -> event -> unit;
  build : slots -> event;
}

let set_bool v k b = v.i.(k) <- Bool.to_int b
let get_bool v k = v.i.(k) <> 0

let set_opt v k = function
  | Some x ->
      v.i.(k) <- 1;
      v.f.(k) <- x
  | None -> v.i.(k) <- 0

let get_opt v k = if v.i.(k) <> 0 then Some v.f.(k) else None

let schema =
  let i64 key = { key; ty = I64 } and num key = { key; ty = Num } in
  let f64 key = { key; ty = F64 } and str key = { key; ty = Str } in
  let flag k key = { key; ty = Bool k } and fopt k key = { key; ty = Fopt k } in
  let entry ?(verbatim = false) ev kind fields read build =
    { ev; kind; verbatim; fields; read; build }
  in
  [|
    entry "tx" 0
      [| i64 "seq"; num "len"; flag 0 "push"; { key = "retx"; ty = Ev_bit 1 } |]
      (fun v -> function
        | Segment_sent r ->
            v.i.(0) <- r.seq;
            v.i.(1) <- r.len;
            set_bool v 2 r.push;
            set_bool v 3 r.retx
        | _ -> ())
      (fun v ->
        Segment_sent
          { seq = v.i.(0); len = v.i.(1); push = get_bool v 2; retx = get_bool v 3 });
    entry "rx" 1 [| i64 "seq"; num "fresh" |]
      (fun v -> function
        | Segment_received r ->
            v.i.(0) <- r.seq;
            v.i.(1) <- r.fresh
        | _ -> ())
      (fun v -> Segment_received { seq = v.i.(0); fresh = v.i.(1) });
    entry "ack" 2 [| i64 "una"; num "acked" |]
      (fun v -> function
        | Ack_received r ->
            v.i.(0) <- r.una;
            v.i.(1) <- r.acked
        | _ -> ())
      (fun v -> Ack_received { una = v.i.(0); acked = v.i.(1) });
    entry "hold" 3 [| num "chunk"; num "in_flight" |]
      (fun v -> function
        | Nagle_hold r ->
            v.i.(0) <- r.chunk;
            v.i.(1) <- r.in_flight
        | _ -> ())
      (fun v -> Nagle_hold { chunk = v.i.(0); in_flight = v.i.(1) });
    entry "toggle" 4 [| flag 0 "enabled" |]
      (fun v -> function Nagle_toggle r -> set_bool v 0 r.enabled | _ -> ())
      (fun v -> Nagle_toggle { enabled = get_bool v 0 });
    entry "cork" 5 [| num "chunk" |]
      (fun v -> function Cork_hold r -> v.i.(0) <- r.chunk | _ -> ())
      (fun v -> Cork_hold { chunk = v.i.(0) });
    entry "delack_fire" 6 [| num "pending" |]
      (fun v -> function Delack_fire r -> v.i.(0) <- r.pending | _ -> ())
      (fun v -> Delack_fire { pending = v.i.(0) });
    entry "delack_cancel" 7 [| num "pending" |]
      (fun v -> function Delack_cancel r -> v.i.(0) <- r.pending | _ -> ())
      (fun v -> Delack_cancel { pending = v.i.(0) });
    entry "fin" 8 [| i64 "rcv_nxt" |]
      (fun v -> function Fin_received r -> v.i.(0) <- r.rcv_nxt | _ -> ())
      (fun v -> Fin_received { rcv_nxt = v.i.(0) });
    entry "drop" 9 [| i64 "seq"; num "len"; str "reason" |]
      (fun v -> function
        | Segment_dropped r ->
            v.i.(0) <- r.seq;
            v.i.(1) <- r.len;
            v.s.(2) <- r.reason
        | _ -> ())
      (fun v -> Segment_dropped { seq = v.i.(0); len = v.i.(1); reason = v.s.(2) });
    entry "reorder" 10 [| i64 "seq"; f64 "delay_us" |]
      (fun v -> function
        | Segment_reordered r ->
            v.i.(0) <- r.seq;
            v.f.(1) <- r.delay_us
        | _ -> ())
      (fun v -> Segment_reordered { seq = v.i.(0); delay_us = v.f.(1) });
    entry "dup" 11 [| i64 "seq" |]
      (fun v -> function Segment_duplicated r -> v.i.(0) <- r.seq | _ -> ())
      (fun v -> Segment_duplicated { seq = v.i.(0) });
    (* Kinds 24 and 25: these two events were added after kind 23. *)
    entry "challenge" 24 [| i64 "seq"; str "kind" |]
      (fun v -> function
        | Segment_challenged r ->
            v.i.(0) <- r.seq;
            v.s.(1) <- r.kind
        | _ -> ())
      (fun v -> Segment_challenged { seq = v.i.(0); kind = v.s.(1) });
    entry "probe" 25 [| i64 "seq"; num "backoff" |]
      (fun v -> function
        | Probe_sent r ->
            v.i.(0) <- r.seq;
            v.i.(1) <- r.backoff
        | _ -> ())
      (fun v -> Probe_sent { seq = v.i.(0); backoff = v.i.(1) });
    entry "share_corrupt" 12 [| i64 "seq" |]
      (fun v -> function Share_corrupted r -> v.i.(0) <- r.seq | _ -> ())
      (fun v -> Share_corrupted { seq = v.i.(0) });
    entry "share_reject" 13 [| str "reason" |]
      (fun v -> function Share_rejected r -> v.s.(0) <- r.reason | _ -> ())
      (fun v -> Share_rejected { reason = v.s.(0) });
    entry "share" 14 [| num "unacked"; num "unread"; num "ackdelay" |]
      (fun v -> function
        | Share_ingested r ->
            v.i.(0) <- r.unacked_total;
            v.i.(1) <- r.unread_total;
            v.i.(2) <- r.ackdelay_total
        | _ -> ())
      (fun v ->
        Share_ingested
          { unacked_total = v.i.(0); unread_total = v.i.(1); ackdelay_total = v.i.(2) });
    entry "estimate" 15 [| fopt 0 "latency_us"; f64 "throughput"; f64 "window_us" |]
      (fun v -> function
        | Estimate_computed r ->
            set_opt v 0 r.latency_us;
            v.f.(1) <- r.throughput;
            v.f.(2) <- r.window_us
        | _ -> ())
      (fun v ->
        Estimate_computed
          { latency_us = get_opt v 0; throughput = v.f.(1); window_us = v.f.(2) });
    entry "request" 16 [| f64 "latency_us" |]
      (fun v -> function Request_done r -> v.f.(0) <- r.latency_us | _ -> ())
      (fun v -> Request_done { latency_us = v.f.(0) });
    entry "req_issued" 17 [| num "req"; i64 "off"; num "len" |]
      (fun v -> function
        | Req_issued r ->
            v.i.(0) <- r.req;
            v.i.(1) <- r.off;
            v.i.(2) <- r.len
        | _ -> ())
      (fun v -> Req_issued { req = v.i.(0); off = v.i.(1); len = v.i.(2) });
    entry "req_sent" 18 [| num "req" |]
      (fun v -> function Req_sent r -> v.i.(0) <- r.req | _ -> ())
      (fun v -> Req_sent { req = v.i.(0) });
    entry "req_complete" 19 [| num "req" |]
      (fun v -> function Req_complete r -> v.i.(0) <- r.req | _ -> ())
      (fun v -> Req_complete { req = v.i.(0) });
    entry "srv_start" 20 [| num "req" |]
      (fun v -> function Srv_start r -> v.i.(0) <- r.req | _ -> ())
      (fun v -> Srv_start { req = v.i.(0) });
    entry "srv_reply" 21 [| num "req"; i64 "off"; num "len" |]
      (fun v -> function
        | Srv_reply r ->
            v.i.(0) <- r.req;
            v.i.(1) <- r.off;
            v.i.(2) <- r.len
        | _ -> ())
      (fun v -> Srv_reply { req = v.i.(0); off = v.i.(1); len = v.i.(2) });
    entry "audit" 22 [| str "queue"; f64 "l"; f64 "lambda"; f64 "w_us"; f64 "rel_err" |]
      (fun v -> function
        | Audit_window r ->
            v.s.(0) <- r.queue;
            v.f.(1) <- r.l_avg;
            v.f.(2) <- r.lambda_per_s;
            v.f.(3) <- r.w_us;
            v.f.(4) <- r.rel_err
        | _ -> ())
      (fun v ->
        Audit_window
          {
            queue = v.s.(0);
            l_avg = v.f.(1);
            lambda_per_s = v.f.(2);
            w_us = v.f.(3);
            rel_err = v.f.(4);
          });
    entry ~verbatim:true "msg" 23 [| str "tag"; str "detail" |]
      (fun v -> function
        | Message r ->
            v.s.(0) <- r.tag;
            v.s.(1) <- r.detail
        | _ -> ())
      (fun v -> Message { tag = v.s.(0); detail = v.s.(1) });
    entry "decision" 26
      [|
        num "decision"; fopt 1 "on_us"; fopt 2 "off_us"; str "mode"; str "action";
        str "reason"; flag 0 "frozen"; f64 "stale_us";
      |]
      (fun v -> function
        | Decision_made r ->
            v.i.(0) <- r.decision;
            set_opt v 1 r.on_us;
            set_opt v 2 r.off_us;
            v.s.(3) <- r.mode;
            v.s.(4) <- r.action;
            v.s.(5) <- r.reason;
            set_bool v 6 r.frozen;
            v.f.(7) <- r.stale_us
        | _ -> ())
      (fun v ->
        Decision_made
          {
            decision = v.i.(0);
            on_us = get_opt v 1;
            off_us = get_opt v 2;
            mode = v.s.(3);
            action = v.s.(4);
            reason = v.s.(5);
            frozen = get_bool v 6;
            stale_us = v.f.(7);
          });
    entry "outcome" 27 [| num "decision"; num "n"; f64 "mean_us"; f64 "p99_us" |]
      (fun v -> function
        | Decision_outcome r ->
            v.i.(0) <- r.decision;
            v.i.(1) <- r.n;
            v.f.(2) <- r.mean_us;
            v.f.(3) <- r.p99_us
        | _ -> ())
      (fun v ->
        Decision_outcome
          { decision = v.i.(0); n = v.i.(1); mean_us = v.f.(2); p99_us = v.f.(3) });
    entry "conn_open" 28 [| num "gen"; flag 0 "inherited" |]
      (fun v -> function
        | Conn_opened r ->
            v.i.(0) <- r.gen;
            set_bool v 1 r.inherited
        | _ -> ())
      (fun v -> Conn_opened { gen = v.i.(0); inherited = get_bool v 1 });
    entry "conn_close" 29 [| num "gen"; num "completed" |]
      (fun v -> function
        | Conn_closed r ->
            v.i.(0) <- r.gen;
            v.i.(1) <- r.completed
        | _ -> ())
      (fun v -> Conn_closed { gen = v.i.(0); completed = v.i.(1) });
    entry "lb_assign" 30 [| num "shard"; str "policy" |]
      (fun v -> function
        | Lb_assigned r ->
            v.i.(0) <- r.shard;
            v.s.(1) <- r.policy
        | _ -> ())
      (fun v -> Lb_assigned { shard = v.i.(0); policy = v.s.(1) });
    entry "shard_enq" 31 [| num "shard"; num "depth" |]
      (fun v -> function
        | Shard_enqueued r ->
            v.i.(0) <- r.shard;
            v.i.(1) <- r.depth
        | _ -> ())
      (fun v -> Shard_enqueued { shard = v.i.(0); depth = v.i.(1) });
  |]

let slots =
  let n = Array.fold_left (fun n e -> max n (Array.length e.fields)) 0 schema in
  fun () -> { i = Array.make n 0; f = Array.make n 0.0; s = Array.make n "" }

(* Every constructor carries a record, so an [event] is a block whose
   tag is its constructor's declaration index: the index of its entry,
   found with no match over the constructors. *)
let entry_of ev = schema.(Obj.tag (Obj.repr ev))

let () =
  let v = slots () in
  Array.iteri
    (fun k e ->
      if Obj.tag (Obj.repr (e.build v)) <> k then
        failwith (Printf.sprintf "Trace.schema: entry %S is not at index %d" e.ev k))
    schema

let read_slots ev =
  let e = entry_of ev in
  let v = slots () in
  e.read v ev;
  (e, v)

(* The JSONL "ev" name: the entry's, or the key of a set [Ev_bit]. *)
let ev_name e v =
  let name = ref e.ev in
  Array.iteri
    (fun k fd -> match fd.ty with Ev_bit _ when v.i.(k) <> 0 -> name := fd.key | _ -> ())
    e.fields;
  !name

let tag r =
  let e = entry_of r.event in
  let sets_ev fd = match fd.ty with Ev_bit _ -> true | _ -> false in
  if not (e.verbatim || Array.exists sets_ev e.fields) then e.ev
  else
    let e, v = read_slots r.event in
    if e.verbatim then v.s.(0) else ev_name e v

let detail r =
  let e, v = read_slots r.event in
  if e.verbatim then v.s.(1)
  else
    let show k fd =
      let value =
        match fd.ty with
        | I64 | Num -> string_of_int v.i.(k)
        | F64 -> Printf.sprintf "%g" v.f.(k)
        | Bool _ | Ev_bit _ -> string_of_bool (get_bool v k)
        | Str -> v.s.(k)
        | Fopt _ -> if get_bool v k then Printf.sprintf "%g" v.f.(k) else "-"
      in
      fd.key ^ "=" ^ value
    in
    String.concat " " (Array.to_list (Array.mapi show e.fields))

let find t ~tag:wanted =
  List.rev
    (fold t ~init:[] ~f:(fun acc r ->
         if String.equal (tag r) wanted then r :: acc else acc))

let clear t =
  Array.fill t.buf 0 t.capacity None;
  t.next <- 0;
  t.count <- 0;
  t.emitted <- 0;
  t.sunk <- 0

let pp_record ppf r =
  Format.fprintf ppf "[%a] %s %s: %s" Time.pp r.at
    (if r.id = "" then "-" else r.id)
    (tag r) (detail r)

(* {1 JSONL export} *)

let json_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_str b key v =
  Buffer.add_string b ",\"";
  Buffer.add_string b key;
  Buffer.add_string b "\":\"";
  json_escape b v;
  Buffer.add_char b '"'

(* %.17g round-trips every finite float through [float_of_string]; a
   non-finite one is written as the string "nan", "inf" or "-inf",
   which [float_of_json] reads back exactly. *)
let add_float b key v =
  if Float.is_finite v then
    Buffer.add_string b (Printf.sprintf ",\"%s\":%.17g" key v)
  else
    Buffer.add_string b
      (Printf.sprintf ",\"%s\":\"%s\"" key
         (if Float.is_nan v then "nan" else if v > 0.0 then "inf" else "-inf"))

let record_to_json ?run r =
  let e, v = read_slots r.event in
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "{\"at_ns\":%d" (Time.to_ns r.at));
  Option.iter (add_str b "run") run;
  add_str b "conn" r.id;
  add_str b "ev" (ev_name e v);
  Array.iteri
    (fun k fd ->
      match fd.ty with
      | I64 | Num -> Buffer.add_string b (Printf.sprintf ",\"%s\":%d" fd.key v.i.(k))
      | F64 -> add_float b fd.key v.f.(k)
      | Bool _ -> Buffer.add_string b (Printf.sprintf ",\"%s\":%b" fd.key (get_bool v k))
      | Ev_bit _ -> ()
      | Str -> add_str b fd.key v.s.(k)
      | Fopt _ ->
          if get_bool v k then add_float b fd.key v.f.(k)
          else Buffer.add_string b (Printf.sprintf ",\"%s\":null" fd.key))
    e.fields;
  Buffer.add_char b '}';
  Buffer.contents b

(* {1 Minimal flat-JSON-object parser}

   Only what the exporter above (and [Metrics.sample_to_json]) produces:
   one object per line, scalar values (string / number / bool / null),
   no nesting.  Hand-rolled because the repo deliberately has no JSON
   dependency. *)

type json_value = Jstr of string | Jnum of float | Jbool of bool | Jnull

exception Parse_error of string

let parse_flat_object line =
  let n = String.length line in
  let pos = ref 0 in
  let err msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match line.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && line.[!pos] = c then incr pos
    else err (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then err "unterminated string"
      else
        match line.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then err "truncated escape";
            (match line.[!pos] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if !pos + 4 >= n then err "truncated \\u escape";
                let hex = String.sub line (!pos + 1) 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> err "bad \\u escape"
                in
                pos := !pos + 4;
                (* Only BMP codepoints below 0x80 are emitted by our
                   exporter; decode others as '?' rather than UTF-8. *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else Buffer.add_char b '?'
            | c -> err (Printf.sprintf "bad escape '\\%c'" c));
            incr pos;
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Jstr (parse_string ())
    | Some 't' ->
        if !pos + 4 <= n && String.sub line !pos 4 = "true" then begin
          pos := !pos + 4;
          Jbool true
        end
        else err "bad literal"
    | Some 'f' ->
        if !pos + 5 <= n && String.sub line !pos 5 = "false" then begin
          pos := !pos + 5;
          Jbool false
        end
        else err "bad literal"
    | Some 'n' ->
        if !pos + 4 <= n && String.sub line !pos 4 = "null" then begin
          pos := !pos + 4;
          Jnull
        end
        else err "bad literal"
    | Some ('-' | '0' .. '9') ->
        let start = !pos in
        while
          !pos < n
          &&
          match line.[!pos] with
          | '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true
          | _ -> false
        do
          incr pos
        done;
        let s = String.sub line start (!pos - start) in
        (try Jnum (float_of_string s)
         with _ -> err (Printf.sprintf "bad number %S" s))
    | Some c -> err (Printf.sprintf "unexpected '%c'" c)
    | None -> err "unexpected end of input"
  in
  try
    skip_ws ();
    expect '{';
    skip_ws ();
    let fields = ref [] in
    (if peek () = Some '}' then incr pos
     else
       let rec members () =
         skip_ws ();
         let key = parse_string () in
         skip_ws ();
         expect ':';
         let v = parse_value () in
         fields := (key, v) :: !fields;
         skip_ws ();
         match peek () with
         | Some ',' ->
             incr pos;
             members ()
         | Some '}' -> incr pos
         | _ -> err "expected ',' or '}'"
       in
       members ());
    skip_ws ();
    if !pos <> n then err "trailing garbage after object";
    Ok (List.rev !fields)
  with Parse_error msg -> Error msg

let field fields key = List.assoc_opt key fields

let ( let* ) = Result.bind

let num fields key =
  match field fields key with
  | Some (Jnum v) -> Ok v
  | Some _ -> Error (Printf.sprintf "field %S is not a number" key)
  | None -> Error (Printf.sprintf "missing field %S" key)

(* The float parse of a JSON number is exact for integers up to 2^53. *)
let max_exact_int = 0x20_0000_0000_0000

let int_field fields key =
  let* v = num fields key in
  if Float.is_integer v && Float.abs v <= float_of_int max_exact_int then Ok (int_of_float v)
  else Error (Printf.sprintf "field %S is not an integer within 2^53: %.17g" key v)

(* A float field's value: a number, or one of the strings [add_float]
   writes for a non-finite float. *)
let float_of_json = function
  | Jnum v -> Some v
  | Jstr "nan" -> Some Float.nan
  | Jstr "inf" -> Some Float.infinity
  | Jstr "-inf" -> Some Float.neg_infinity
  | Jstr _ | Jbool _ | Jnull -> None

(* A float field as an option: [null] is [None], which is how every
   file holds a [None] and how files written before the non-finite
   strings hold a non-finite [F64] (read as [nan]). *)
let fopt_field fields key =
  match field fields key with
  | Some Jnull -> Ok None
  | Some j -> (
      match float_of_json j with
      | Some _ as v -> Ok v
      | None -> Error (Printf.sprintf "field %S is not a number or null" key))
  | None -> Error (Printf.sprintf "missing field %S" key)

let f64_field fields key = Result.map (Option.value ~default:Float.nan) (fopt_field fields key)

let str fields key =
  match field fields key with
  | Some (Jstr v) -> Ok v
  | Some _ -> Error (Printf.sprintf "field %S is not a string" key)
  | None -> Error (Printf.sprintf "missing field %S" key)

let bool_field fields key =
  match field fields key with
  | Some (Jbool v) -> Ok v
  | Some _ -> Error (Printf.sprintf "field %S is not a bool" key)
  | None -> Error (Printf.sprintf "missing field %S" key)

(* Raised (internally) by the event decoder when the ["ev"] tag has no
   entry: the line is well-formed JSONL from a newer writer, not
   garbage, and forward-compat readers may skip it. *)
exception Unknown_ev of string

(* JSONL "ev" name -> its entry and the [Ev_bit] field it sets (-1 for
   none). *)
let by_ev =
  let t = Hashtbl.create 64 in
  Array.iter
    (fun e ->
      Hashtbl.replace t e.ev (e, -1);
      Array.iteri
        (fun k fd -> match fd.ty with Ev_bit _ -> Hashtbl.replace t fd.key (e, k) | _ -> ())
        e.fields)
    schema;
  t

let record_of_json_ext line =
  let* fields = parse_flat_object line in
  let* at_ns = int_field fields "at_ns" in
  let* ev = str fields "ev" in
  let run = match field fields "run" with Some (Jstr r) -> Some r | _ -> None in
  let id = match field fields "conn" with Some (Jstr c) -> c | _ -> "" in
  let e, ev_bit =
    match Hashtbl.find_opt by_ev ev with Some x -> x | None -> raise (Unknown_ev ev)
  in
  let v = slots () in
  let rec decode k =
    if k = Array.length e.fields then Ok (run, { at = at_ns; id; event = e.build v })
    else
      let fd = e.fields.(k) in
      let* () =
        match fd.ty with
        | I64 | Num -> Result.map (fun n -> v.i.(k) <- n) (int_field fields fd.key)
        | F64 -> Result.map (fun x -> v.f.(k) <- x) (f64_field fields fd.key)
        | Bool _ -> Result.map (set_bool v k) (bool_field fields fd.key)
        | Ev_bit _ -> Ok (set_bool v k (k = ev_bit))
        | Str -> Result.map (fun s -> v.s.(k) <- s) (str fields fd.key)
        | Fopt _ -> Result.map (set_opt v k) (fopt_field fields fd.key)
      in
      decode (k + 1)
  in
  decode 0

let record_of_json line =
  match record_of_json_ext line with
  | exception Unknown_ev other ->
      Error (Printf.sprintf "unknown event type %S" other)
  | r -> r

(* Stream a JSONL trace file without materializing it.  Missing or
   unreadable files and malformed lines are reported as [Error] (with
   the offending line number) so callers can exit non-zero with one
   clear message instead of silently doing nothing.

   [?unknown] opts into forward compatibility: well-formed lines whose
   ["ev"] tag this reader has no case for (a newer writer's event
   kinds) are skipped and reported to the callback instead of failing
   the fold.  Malformed lines still fail either way. *)
let fold_jsonl ?unknown path ~init ~f =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let acc = ref init in
      let line_no = ref 0 in
      let err = ref None in
      (try
         while !err = None do
           let line = input_line ic in
           incr line_no;
           if String.trim line <> "" then
             match record_of_json_ext line with
             | Ok (run, r) -> acc := f !acc run r
             | exception Unknown_ev ev -> (
                 match unknown with
                 | Some cb -> cb ev
                 | None ->
                     err :=
                       Some
                         (Printf.sprintf "%s: line %d: unknown event type %S"
                            path !line_no ev))
             | Error msg ->
                 err := Some (Printf.sprintf "%s: line %d: %s" path !line_no msg)
         done
       with End_of_file -> ());
      close_in ic;
      match !err with Some msg -> Error msg | None -> Ok !acc

let load_jsonl path =
  match
    fold_jsonl path ~init:[] ~f:(fun acc run r -> (run, r) :: acc)
  with
  | Error _ as e -> e
  | Ok [] -> Error (Printf.sprintf "%s: no trace records" path)
  | Ok rev -> Ok (List.rev rev)


(* {1 Binary trace format}

   A compact fixed-width encoding of the same records.  Layout (all
   integers little-endian):

     header   magic "e2ebtrc1" (8B) | version u16 | header_len u16
              | reserved u32                                   = 16 B
     records  kind u8 | flags u8 | id_ref u16 | at_ns i64
              | payload: the entry's fields in order
              | run_ref u16 when flags bit 7
     trailer  name table then string table, each entry
              u32 byte length + raw bytes
     footer   trailer_off i64 | n_records i64 | n_names u32
              | n_strs u32 | magic "e2ebtrcF" (8B)             = 32 B

   Connection ids and run labels are interned into the u16-indexed
   name table (at most 65536 distinct values); [Str] fields into the
   u32-indexed string table.  Both tables are buffered in memory and
   written after the records, so the writer streams records with
   memory proportional to the number of distinct strings only.

   Flags: bits 0-2 are the entry's [Bool], [Ev_bit] and [Fopt] bits,
   bit 6 ("wide") widens every [Num] field of the record to i64 when
   any of them is outside u32, bit 7 marks a trailing run-label
   reference. *)

module Binary = struct
  let magic = "e2ebtrc1"
  let footer_magic = "e2ebtrcF"

  (* v2 added kinds 26/27 (Decision_made / Decision_outcome) and flag
     bit 2; v3 added kinds 28/29 (Conn_opened / Conn_closed); v4 added
     kinds 30/31 (Lb_assigned / Shard_enqueued).  v1..v3 files remain
     readable.

     Forward compatibility from v4 on: writers of any later version
     must encode kinds unknown to this reader with an explicit u16
     payload-length field immediately after the 12-byte record prefix
     (known kinds keep their fixed layouts), so a v4 reader given an
     [?unknown] callback can skip newer records instead of failing. *)
  let version = 4
  let min_read_version = 1
  let header_len = 16
  let footer_len = 32
  let flag_wide = 0x40
  let flag_run = 0x80

  let width ty ~wide =
    match ty with
    | I64 | F64 | Fopt _ -> 8
    | Num -> if wide then 8 else 4
    | Str -> 4
    | Bool _ | Ev_bit _ -> 0

  (* Payload bytes of an entry's record; the 12-byte prefix and the
     optional run ref are not counted. *)
  let payload_len e ~wide = Array.fold_left (fun n fd -> n + width fd.ty ~wide) 0 e.fields

  let max_payload = Array.fold_left (fun n e -> max n (payload_len e ~wide:true)) 0 schema

  let by_kind =
    let a = Array.make (1 + Array.fold_left (fun m e -> max m e.kind) 0 schema) None in
    Array.iter
      (fun e ->
        if a.(e.kind) <> None then failwith (Printf.sprintf "Trace.schema: kind %d twice" e.kind);
        a.(e.kind) <- Some e)
      schema;
    a

  let u32_ok v = v >= 0 && v <= 0xFFFF_FFFF

  let recent_names = 4

  (* Fills the unused [recent] slots: a string of the writer's own, so
     no caller's id is ever [==] to it. *)
  let unseen = Bytes.to_string (Bytes.make 1 '\000')

  type writer = {
    oc : out_channel;
    names : (string, int) Hashtbl.t;
    mutable names_rev : string list;
    mutable n_names : int;
    recent : string array;  (** the names interned last, checked by [==] first *)
    recent_ids : int array;
    mutable recent_next : int;  (** the [recent] slot to overwrite next *)
    strs : (string, int) Hashtbl.t;
    mutable strs_rev : string list;
    mutable n_strs : int;
    record : Bytes.t;  (** one record's bytes, and the header's and footer's *)
    slots : slots;
    mutable n_records : int;
    mutable finished : bool;
  }

  let writer oc =
    let record = Bytes.create (max footer_len (14 + max_payload)) in
    Bytes.blit_string magic 0 record 0 8;
    Bytes.set_uint16_le record 8 version;
    Bytes.set_uint16_le record 10 header_len;
    Bytes.set_int32_le record 12 0l;
    output oc record 0 header_len;
    {
      oc;
      names = Hashtbl.create 64;
      names_rev = [];
      n_names = 0;
      recent = Array.make recent_names unseen;
      recent_ids = Array.make recent_names 0;
      recent_next = 0;
      strs = Hashtbl.create 64;
      strs_rev = [];
      n_strs = 0;
      record;
      slots = slots ();
      n_records = 0;
      finished = false;
    }

  let lookup_name w s =
    match Hashtbl.find_opt w.names s with
    | Some i -> i
    | None ->
        if w.n_names > 0xFFFF then
          failwith "Trace.Binary: more than 65536 distinct ids/run labels";
        let i = w.n_names in
        Hashtbl.add w.names s i;
        w.names_rev <- s :: w.names_rev;
        w.n_names <- i + 1;
        i

  (* A record's id is almost always a string the writer saw a few
     records ago (a socket's label), so the last few are checked by
     physical equality before the table is hashed. *)
  let rec recent_index w s k =
    if k = recent_names then -1
    else if Array.unsafe_get w.recent k == s then k
    else recent_index w s (k + 1)

  let intern_name w s =
    let k = recent_index w s 0 in
    if k >= 0 then Array.unsafe_get w.recent_ids k
    else begin
      let i = lookup_name w s in
      let k = w.recent_next in
      w.recent.(k) <- s;
      w.recent_ids.(k) <- i;
      w.recent_next <- (k + 1) mod recent_names;
      i
    end

  let intern_str w s =
    match Hashtbl.find_opt w.strs s with
    | Some i -> i
    | None ->
        let i = w.n_strs in
        Hashtbl.add w.strs s i;
        w.strs_rev <- s :: w.strs_rev;
        w.n_strs <- i + 1;
        i

  (* Two passes over the entry's fields: the flags (bits and the wide
     test), then the payload, set in place in the writer's record
     bytes.  [slots] has room for every entry's fields, so [k] is in
     bounds of its arrays. *)
  let write w ?run r =
    if w.finished then invalid_arg "Trace.Binary.write: writer is finished";
    let e = entry_of r.event in
    let v = w.slots and fields = e.fields and by = w.record in
    e.read v r.event;
    let ints = v.i and floats = v.f in
    let n = Array.length fields in
    let flags = ref (match run with Some _ -> flag_run | None -> 0) in
    for k = 0 to n - 1 do
      match (Array.unsafe_get fields k).ty with
      | Bool bit | Ev_bit bit | Fopt bit ->
          if Array.unsafe_get ints k <> 0 then flags := !flags lor (1 lsl bit)
      | Num -> if not (u32_ok (Array.unsafe_get ints k)) then flags := !flags lor flag_wide
      | I64 | F64 | Str -> ()
    done;
    let wide = !flags land flag_wide <> 0 in
    (* prefix: kind u8, flags u8, id_ref u16 (one little-endian u32), at_ns i64 *)
    Bytes.set_int32_le by 0
      (Int32.of_int (e.kind lor (!flags lsl 8) lor (intern_name w r.id lsl 16)));
    Bytes.set_int64_le by 4 (Int64.of_int (Time.to_ns r.at));
    let pos = ref 12 in
    for k = 0 to n - 1 do
      let p = !pos in
      match (Array.unsafe_get fields k).ty with
      | Num when not wide ->
          Bytes.set_int32_le by p (Int32.of_int (Array.unsafe_get ints k));
          pos := p + 4
      | I64 | Num ->
          Bytes.set_int64_le by p (Int64.of_int (Array.unsafe_get ints k));
          pos := p + 8
      | F64 ->
          Bytes.set_int64_le by p (Int64.bits_of_float (Array.unsafe_get floats k));
          pos := p + 8
      | Fopt _ ->
          let x = if Array.unsafe_get ints k <> 0 then Array.unsafe_get floats k else 0.0 in
          Bytes.set_int64_le by p (Int64.bits_of_float x);
          pos := p + 8
      | Str ->
          Bytes.set_int32_le by p (Int32.of_int (intern_str w v.s.(k)));
          pos := p + 4
      | Bool _ | Ev_bit _ -> ()
    done;
    (match run with
    | Some label ->
        Bytes.set_uint16_le by !pos (intern_name w label);
        pos := !pos + 2
    | None -> ());
    output w.oc by 0 !pos;
    w.n_records <- w.n_records + 1

  let written w = w.n_records

  let finish w =
    if not w.finished then begin
      w.finished <- true;
      let trailer_off = LargeFile.pos_out w.oc in
      let by = w.record in
      let emit_table rev =
        List.iter
          (fun s ->
            Bytes.set_int32_le by 0 (Int32.of_int (String.length s));
            output w.oc by 0 4;
            output_string w.oc s)
          (List.rev rev)
      in
      emit_table w.names_rev;
      emit_table w.strs_rev;
      Bytes.set_int64_le by 0 trailer_off;
      Bytes.set_int64_le by 8 (Int64.of_int w.n_records);
      Bytes.set_int32_le by 16 (Int32.of_int w.n_names);
      Bytes.set_int32_le by 20 (Int32.of_int w.n_strs);
      Bytes.blit_string footer_magic 0 by 24 8;
      output w.oc by 0 footer_len;
      flush w.oc
    end

  (* {2 Reading} *)

  exception Corrupt of string

  let get_u32 by off = Int32.to_int (Bytes.get_int32_le by off) land 0xFFFF_FFFF
  let get_i64 by off = Int64.to_int (Bytes.get_int64_le by off)
  let get_f64 by off = Int64.float_of_bits (Bytes.get_int64_le by off)

  let is_binary path =
    match open_in_bin path with
    | exception Sys_error _ -> false
    | ic ->
        let by = Bytes.create 8 in
        let ok =
          try
            really_input ic by 0 8;
            Bytes.to_string by = magic
          with End_of_file -> false
        in
        close_in ic;
        ok

  (* Every [Corrupt] names the byte offset where the file went wrong.
     Nothing read from the file sizes an allocation or a loop before it
     is checked against the file's size. *)
  let fold_file ?unknown path ~init ~f =
    match open_in_bin path with
    | exception Sys_error msg -> Error msg
    | ic -> (
        let corrupt off fmt =
          Printf.ksprintf
            (fun m -> raise (Corrupt (Printf.sprintf "%s: offset %d: %s" path off m)))
            fmt
        in
        let scratch = Bytes.create (max footer_len max_payload) in
        let read n =
          let off = pos_in ic in
          (try really_input ic scratch 0 n
           with End_of_file -> corrupt off "truncated file");
          scratch
        in
        let result =
          try
            let size = in_channel_length ic in
            if size < header_len + footer_len then corrupt 0 "file too short (%d bytes)" size;
            if Bytes.sub_string (read 8) 0 8 <> magic then corrupt 0 "bad magic";
            let by = read 8 in
            let v = Bytes.get_uint16_le by 0 in
            (* With an [?unknown] callback, files from newer writers are
               acceptable: their new kinds carry explicit lengths (see
               the version note above) and get skipped record by
               record.  Without one, stay strict. *)
            if v < min_read_version || (v > version && unknown = None) then
              corrupt 8 "unsupported version %d" v;
            let hlen = Bytes.get_uint16_le by 2 in
            if hlen < header_len then corrupt 10 "header length %d" hlen;
            let foot = size - footer_len in
            seek_in ic foot;
            let by = read footer_len in
            if Bytes.sub_string by 24 8 <> footer_magic then
              corrupt (foot + 24) "bad footer magic";
            let trailer_off = get_i64 by 0 in
            let n_records = get_i64 by 8 in
            let n_names = get_u32 by 16 in
            let n_strs = get_u32 by 20 in
            if trailer_off < hlen || trailer_off > foot then
              corrupt foot "trailer offset %d out of bounds" trailer_off;
            if n_records < 0 then corrupt (foot + 8) "record count %d" n_records;
            (* Each table entry takes at least its 4-byte length. *)
            if n_names + n_strs > (foot - trailer_off) / 4 then
              corrupt (foot + 16) "%d names and %d strings in a %d-byte trailer" n_names
                n_strs (foot - trailer_off);
            seek_in ic trailer_off;
            let read_table n =
              Array.init n (fun _ ->
                  let off = pos_in ic in
                  let len = get_u32 (read 4) 0 in
                  if len > foot - off - 4 then corrupt off "table entry of %d bytes" len;
                  really_input_string ic len)
            in
            let names = read_table n_names in
            let strs = read_table n_strs in
            let lookup table off i =
              if i < Array.length table then table.(i)
              else corrupt off "table ref %d out of range" i
            in
            seek_in ic hlen;
            let v = slots () in
            let acc = ref init in
            for rec_no = 0 to n_records - 1 do
              let off = pos_in ic in
              if off >= trailer_off then
                corrupt off "record %d of %d starts past the records' end %d" rec_no
                  n_records trailer_off;
              let by = read 12 in
              let kind = Bytes.get_uint8 by 0 in
              let flags = Bytes.get_uint8 by 1 in
              let id_ref = Bytes.get_uint16_le by 2 in
              let at = get_i64 by 4 in
              let wide = flags land flag_wide <> 0 in
              match if kind < Array.length by_kind then by_kind.(kind) else None with
              | None -> (
                  match unknown with
                  | Some cb ->
                      (* Newer-writer record: skip its explicit-length
                         payload and optional run ref, count it. *)
                      let plen = Bytes.get_uint16_le (read 2) 0 in
                      seek_in ic (pos_in ic + plen);
                      if flags land flag_run <> 0 then ignore (read 2);
                      cb (Printf.sprintf "kind %d" kind)
                  | None -> corrupt off "record %d: unknown kind %d" rec_no kind)
              | Some e ->
                  let by = read (payload_len e ~wide) in
                  let pos = ref 0 in
                  Array.iteri
                    (fun k fd ->
                      (match fd.ty with
                      | I64 -> v.i.(k) <- get_i64 by !pos
                      | Num -> v.i.(k) <- (if wide then get_i64 by !pos else get_u32 by !pos)
                      | F64 -> v.f.(k) <- get_f64 by !pos
                      | Bool bit | Ev_bit bit -> v.i.(k) <- (flags lsr bit) land 1
                      | Fopt bit ->
                          v.i.(k) <- (flags lsr bit) land 1;
                          v.f.(k) <- get_f64 by !pos
                      | Str -> v.s.(k) <- lookup strs (off + 12 + !pos) (get_u32 by !pos));
                      pos := !pos + width fd.ty ~wide)
                    e.fields;
                  let event = e.build v in
                  let run =
                    if flags land flag_run <> 0 then
                      let off = pos_in ic in
                      Some (lookup names off (Bytes.get_uint16_le (read 2) 0))
                    else None
                  in
                  acc := f !acc run { at; id = lookup names (off + 2) id_ref; event }
            done;
            let stop = pos_in ic in
            if stop <> trailer_off then
              corrupt stop "records end here but the trailer starts at %d" trailer_off;
            Ok !acc
          with
          | Corrupt msg -> Error msg
          | Sys_error msg -> Error msg
        in
        close_in ic;
        result)

  let load_file path =
    match fold_file path ~init:[] ~f:(fun acc run r -> (run, r) :: acc) with
    | Error _ as e -> e
    | Ok rev -> Ok (List.rev rev)
end

(* Fold over a trace file in either format, sniffing the binary magic. *)
let fold_file ?unknown path ~init ~f =
  if Binary.is_binary path then Binary.fold_file ?unknown path ~init ~f
  else fold_jsonl ?unknown path ~init ~f
