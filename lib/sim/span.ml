(* Per-request causal spans reconstructed from trace records.

   A request's life is pinned down by nine milestones (t0..t8); the
   eight phases between consecutive milestones partition the interval
   [issue, complete] exactly — durations telescope, so they sum to the
   end-to-end latency by construction, with no gaps or overlaps.

   Identity needs no wire-level request IDs: requests on a connection
   are FIFO at every stage (issue order = parse order = reply order),
   so the j-th Req_issued on "cN" is the j-th Srv_start on its peer
   "sN" and the j-th Req_complete back on "cN".  Wire milestones come
   from stream-byte extents: Req_issued/Srv_reply record the byte range
   [off, off+len) their message occupies, and Segment_sent {seq; len} /
   Segment_received {fresh} give the time each stream byte first left
   the sender / arrived in order at the receiver. *)

type phase =
  | Client_send  (* t0→t1: issue until the app's write hits the socket *)
  | Send_hold  (* t1→t2: socket buffer (Nagle/cork/window) until last cmd byte tx *)
  | Network_in  (* t2→t3: wire + IRQ until last cmd byte received in order *)
  | Server_queue  (* t3→t4: receive queue until the server dequeues the request *)
  | Server_compute  (* t4→t5: batch service (incl. server-CPU contention) *)
  | Reply_hold  (* t5→t6: server socket buffer until last reply byte tx *)
  | Network_out  (* t6→t7: wire + IRQ until last reply byte received *)
  | Client_recv  (* t7→t8: client receive queue + parse until completion *)

let all_phases =
  [ Client_send; Send_hold; Network_in; Server_queue; Server_compute;
    Reply_hold; Network_out; Client_recv ]

let phase_name = function
  | Client_send -> "client_send"
  | Send_hold -> "send_hold"
  | Network_in -> "network_in"
  | Server_queue -> "server_queue"
  | Server_compute -> "server_compute"
  | Reply_hold -> "reply_hold"
  | Network_out -> "network_out"
  | Client_recv -> "client_recv"

type span = {
  conn : string;
  req : int;
  milestones : Time.t array;  (* length 9: t0..t8, non-decreasing *)
}

let issue s = s.milestones.(0)
let complete s = s.milestones.(8)
let total s = Time.diff s.milestones.(8) s.milestones.(0)
let latency_us s = Time.to_us (total s)

let duration s ph =
  let i =
    match ph with
    | Client_send -> 0
    | Send_hold -> 1
    | Network_in -> 2
    | Server_queue -> 3
    | Server_compute -> 4
    | Reply_hold -> 5
    | Network_out -> 6
    | Client_recv -> 7
  in
  Time.diff s.milestones.(i + 1) s.milestones.(i)

let phases s = List.map (fun ph -> (ph, duration s ph)) all_phases

(* {2 Builder} *)

type per_req = {
  mutable r_issued : (int * int * Time.t) option;  (* off, len, at *)
  mutable r_sent : Time.t option;
  mutable r_complete : Time.t option;
  mutable r_start : Time.t option;
  mutable r_reply : (int * int * Time.t) option;  (* off, len, at *)
}

type conn_state = {
  reqs : (int, per_req) Hashtbl.t;
  mutable has_issued : bool;  (* marks the id as a client endpoint *)
  (* Stream-byte timing, oldest first once reversed: [send_edges] holds
     (edge_end, at) for each fresh transmission advancing the right
     edge of sent data (retransmissions never advance it, so each byte
     keeps its first-transmission time); [recv_edges] holds the
     cumulative in-order byte count after each fresh receive. *)
  mutable send_edge : int;
  mutable send_edges_rev : (int * Time.t) list;
  mutable recv_cum : int;
  mutable recv_edges_rev : (int * Time.t) list;
}

let conn_state tbl id =
  match Hashtbl.find_opt tbl id with
  | Some c -> c
  | None ->
      let c =
        {
          reqs = Hashtbl.create 64;
          has_issued = false;
          send_edge = 0;
          send_edges_rev = [];
          recv_cum = 0;
          recv_edges_rev = [];
        }
      in
      Hashtbl.add tbl id c;
      c

let per_req c req =
  match Hashtbl.find_opt c.reqs req with
  | Some r -> r
  | None ->
      let r =
        { r_issued = None; r_sent = None; r_complete = None; r_start = None;
          r_reply = None }
      in
      Hashtbl.add c.reqs req r;
      r

(* First record wins everywhere: the ring only drops oldest records, so
   the first retained occurrence is the authoritative one. *)
let set_once get set v = match get () with None -> set (Some v) | Some _ -> ()

(* Time the stream byte [b] first crossed an edge list: the [at] of the
   first (edge, at) with [edge > b].  [edges] is ascending. *)
let byte_time edges b =
  let n = Array.length edges in
  let rec go lo hi =
    (* invariant: every index < lo has edge <= b; every >= hi has edge > b *)
    if lo >= hi then if lo < n then Some (snd edges.(lo)) else None
    else
      let mid = (lo + hi) / 2 in
      if fst edges.(mid) > b then go lo mid else go (mid + 1) hi
  in
  go 0 n

(* "c0" -> "s0", and tenant-tagged fleet ids "bare/c0" -> "bare/s0". *)
let default_peer id =
  let base = match String.rindex_opt id '/' with Some i -> i + 1 | None -> 0 in
  if String.length id > base && id.[base] = 'c' then
    Some
      (String.sub id 0 base ^ "s"
      ^ String.sub id (base + 1) (String.length id - base - 1))
  else None

type built = { spans : span list; incomplete : int }

let build ?(peer = default_peer) records =
  let conns : (string, conn_state) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (r : Trace.record) ->
      match r.event with
      | Trace.Req_issued { req; off; len } ->
          let c = conn_state conns r.id in
          c.has_issued <- true;
          let pr = per_req c req in
          set_once (fun () -> pr.r_issued) (fun v -> pr.r_issued <- v) (off, len, r.at)
      | Trace.Req_sent { req } ->
          let pr = per_req (conn_state conns r.id) req in
          set_once (fun () -> pr.r_sent) (fun v -> pr.r_sent <- v) r.at
      | Trace.Req_complete { req } ->
          let pr = per_req (conn_state conns r.id) req in
          set_once (fun () -> pr.r_complete) (fun v -> pr.r_complete <- v) r.at
      | Trace.Srv_start { req } ->
          let pr = per_req (conn_state conns r.id) req in
          set_once (fun () -> pr.r_start) (fun v -> pr.r_start <- v) r.at
      | Trace.Srv_reply { req; off; len } ->
          let pr = per_req (conn_state conns r.id) req in
          set_once (fun () -> pr.r_reply) (fun v -> pr.r_reply <- v) (off, len, r.at)
      | Trace.Segment_sent { seq; len; retx = _; push = _ } ->
          let c = conn_state conns r.id in
          if seq + len > c.send_edge then begin
            c.send_edge <- seq + len;
            c.send_edges_rev <- (seq + len, r.at) :: c.send_edges_rev
          end
      | Trace.Segment_received { fresh; seq } ->
          if fresh > 0 then begin
            let c = conn_state conns r.id in
            (* Anchor to the absolute stream offset: rcv_nxt after this
               record is max(prev rcv_nxt, seq) + fresh.  Using [seq]
               rather than a running sum keeps positions correct when
               ring wraparound drops the front of the trace. *)
            c.recv_cum <- Stdlib.max c.recv_cum seq + fresh;
            c.recv_edges_rev <- (c.recv_cum, r.at) :: c.recv_edges_rev
          end
      | _ -> ())
    records;
  let spans = ref [] in
  let seen = ref 0 in
  let clients =
    Hashtbl.fold (fun id c acc -> if c.has_issued then (id, c) :: acc else acc)
      conns []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (id, c) ->
      let srv =
        match peer id with
        | Some sid -> Hashtbl.find_opt conns sid
        | None -> None
      in
      let c_send = Array.of_list (List.rev c.send_edges_rev) in
      let c_recv = Array.of_list (List.rev c.recv_edges_rev) in
      let s_send, s_recv =
        match srv with
        | Some s ->
            ( Array.of_list (List.rev s.send_edges_rev),
              Array.of_list (List.rev s.recv_edges_rev) )
        | None -> ([||], [||])
      in
      let reqs =
        Hashtbl.fold (fun req _ acc -> req :: acc) c.reqs []
        |> List.sort Stdlib.compare
      in
      List.iter
        (fun req ->
          incr seen;
          let pr = Hashtbl.find c.reqs req in
          let srv_pr =
            Option.bind srv (fun s -> Hashtbl.find_opt s.reqs req)
          in
          let milestones =
            match (pr.r_issued, pr.r_sent, srv_pr, pr.r_complete) with
            | ( Some (off, len, t0),
                Some t1,
                Some { r_start = Some t4; r_reply = Some (roff, rlen, t5); _ },
                Some t8 ) -> (
                let last_cmd = off + len - 1 and last_rep = roff + rlen - 1 in
                match
                  ( byte_time c_send last_cmd,
                    byte_time s_recv last_cmd,
                    byte_time s_send last_rep,
                    byte_time c_recv last_rep )
                with
                | Some t2, Some t3, Some t6, Some t7 ->
                    Some [| t0; t1; t2; t3; t4; t5; t6; t7; t8 |]
                | _ -> None)
            | _ -> None
          in
          match milestones with
          | Some m -> spans := { conn = id; req; milestones = m } :: !spans
          | None -> ())
        reqs)
    clients;
  let spans = List.rev !spans in
  { spans; incomplete = !seen - List.length spans }

(* {2 Streaming fold}

   Same reconstruction as [build], but incremental: requests are
   resolved (or written off) the moment their [Req_complete] record is
   fed, and their per-request state plus any wire edges no later
   requests can reference are retired on the spot.  Because requests
   on a connection are FIFO and every milestone source record of a
   request causally precedes its [Req_complete], a complete trace fed
   in order produces exactly the spans and incomplete count of the
   batch builder — while holding memory proportional to the number of
   in-flight requests rather than to trace length.  (Only when ring
   wraparound has dropped a request's wire edges can the two differ:
   the batch builder may then match a later retransmission edge that
   the streaming fold has already given up on.) *)

module Streaming = struct
  (* A deque of (edge_end, first-cross time) pairs in two int arrays:
     push at the back, prune retired stream bytes from the front,
     binary-search the live window.  Pruned edges all precede every
     byte a future request can ask about, so lookups agree with the
     batch builder's search over the full edge array. *)
  type edges = {
    mutable ee : int array;
    mutable et : int array;
    mutable start : int;
    mutable len : int;
  }

  let edges_create () =
    { ee = Array.make 16 0; et = Array.make 16 0; start = 0; len = 0 }

  let edges_push es edge at =
    let cap = Array.length es.ee in
    if es.start + es.len = cap then begin
      let newcap = if 2 * es.len <= cap then cap else 2 * cap in
      let ne = Array.make newcap 0 and nt = Array.make newcap 0 in
      Array.blit es.ee es.start ne 0 es.len;
      Array.blit es.et es.start nt 0 es.len;
      es.ee <- ne;
      es.et <- nt;
      es.start <- 0
    end;
    es.ee.(es.start + es.len) <- edge;
    es.et.(es.start + es.len) <- at;
    es.len <- es.len + 1

  let edges_prune es threshold =
    while es.len > 0 && es.ee.(es.start) <= threshold do
      es.start <- es.start + 1;
      es.len <- es.len - 1
    done

  (* Time the stream byte [b] first crossed the live window: the [at]
     of the first retained (edge, at) with [edge > b]. *)
  let edges_byte_time es b =
    let lo = ref es.start and hi = ref (es.start + es.len) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if es.ee.(mid) > b then hi := mid else lo := mid + 1
    done;
    if !lo < es.start + es.len then Some es.et.(!lo) else None

  type sconn = {
    sreqs : (int, per_req) Hashtbl.t;
    mutable s_has_issued : bool;
    mutable s_send_edge : int;
    send : edges;
    mutable s_recv_cum : int;
    recv : edges;
    mutable retired : int;  (* 1 + highest retired req index (FIFO) *)
    mutable failed : int;  (* retired without a resolvable span *)
  }

  type t = {
    peer : string -> string option;
    conns : (string, sconn) Hashtbl.t;
    mutable resolved : int;
  }

  let create ?(peer = default_peer) () =
    { peer; conns = Hashtbl.create 16; resolved = 0 }

  let sconn t id =
    match Hashtbl.find_opt t.conns id with
    | Some c -> c
    | None ->
        let c =
          {
            sreqs = Hashtbl.create 64;
            s_has_issued = false;
            s_send_edge = 0;
            send = edges_create ();
            s_recv_cum = 0;
            recv = edges_create ();
            retired = 0;
            failed = 0;
          }
        in
        Hashtbl.add t.conns id c;
        c

  let sper_req c req =
    match Hashtbl.find_opt c.sreqs req with
    | Some r -> r
    | None ->
        let r =
          { r_issued = None; r_sent = None; r_complete = None; r_start = None;
            r_reply = None }
        in
        Hashtbl.add c.sreqs req r;
        r

  (* Resolve request [req] on client [c] at its completion time [t8],
     retire its state from both endpoints, and prune wire edges no
     later request can reference (FIFO stream offsets only grow). *)
  let complete_req t c id req t8 =
    let srv =
      match t.peer id with
      | Some sid -> Hashtbl.find_opt t.conns sid
      | None -> None
    in
    let pr = sper_req c req in
    let srv_pr = Option.bind srv (fun s -> Hashtbl.find_opt s.sreqs req) in
    let span =
      match (pr.r_issued, pr.r_sent, srv, srv_pr) with
      | ( Some (off, len, t0),
          Some t1,
          Some s,
          Some { r_start = Some t4; r_reply = Some (roff, rlen, t5); _ } ) -> (
          let last_cmd = off + len - 1 and last_rep = roff + rlen - 1 in
          match
            ( edges_byte_time c.send last_cmd,
              edges_byte_time s.recv last_cmd,
              edges_byte_time s.send last_rep,
              edges_byte_time c.recv last_rep )
          with
          | Some t2, Some t3, Some t6, Some t7 ->
              Some
                {
                  conn = id;
                  req;
                  milestones = [| t0; t1; t2; t3; t4; t5; t6; t7; t8 |];
                }
          | _ -> None)
      | _ -> None
    in
    (match pr.r_issued with
    | Some (off, len, _) ->
        edges_prune c.send (off + len);
        (match srv with Some s -> edges_prune s.recv (off + len) | None -> ())
    | None -> ());
    (match srv_pr with
    | Some { r_reply = Some (roff, rlen, _); _ } ->
        edges_prune c.recv (roff + rlen);
        (match srv with Some s -> edges_prune s.send (roff + rlen) | None -> ())
    | None | Some _ -> ());
    Hashtbl.remove c.sreqs req;
    if req + 1 > c.retired then c.retired <- req + 1;
    (match srv with
    | Some s ->
        Hashtbl.remove s.sreqs req;
        if req + 1 > s.retired then s.retired <- req + 1
    | None -> ());
    (match span with
    | Some _ -> t.resolved <- t.resolved + 1
    | None -> c.failed <- c.failed + 1);
    span

  let feed t (r : Trace.record) =
    match r.event with
    | Trace.Req_issued { req; off; len } ->
        let c = sconn t r.id in
        c.s_has_issued <- true;
        if req >= c.retired then begin
          let pr = sper_req c req in
          set_once (fun () -> pr.r_issued) (fun v -> pr.r_issued <- v)
            (off, len, r.at)
        end;
        None
    | Trace.Req_sent { req } ->
        let c = sconn t r.id in
        if req >= c.retired then begin
          let pr = sper_req c req in
          set_once (fun () -> pr.r_sent) (fun v -> pr.r_sent <- v) r.at
        end;
        None
    | Trace.Req_complete { req } ->
        let c = sconn t r.id in
        if req >= c.retired then complete_req t c r.id req r.at else None
    | Trace.Srv_start { req } ->
        let c = sconn t r.id in
        if req >= c.retired then begin
          let pr = sper_req c req in
          set_once (fun () -> pr.r_start) (fun v -> pr.r_start <- v) r.at
        end;
        None
    | Trace.Srv_reply { req; off; len } ->
        let c = sconn t r.id in
        if req >= c.retired then begin
          let pr = sper_req c req in
          set_once (fun () -> pr.r_reply) (fun v -> pr.r_reply <- v)
            (off, len, r.at)
        end;
        None
    | Trace.Segment_sent { seq; len; retx = _; push = _ } ->
        let c = sconn t r.id in
        if seq + len > c.s_send_edge then begin
          c.s_send_edge <- seq + len;
          edges_push c.send (seq + len) r.at
        end;
        None
    | Trace.Segment_received { fresh; seq } ->
        if fresh > 0 then begin
          let c = sconn t r.id in
          c.s_recv_cum <- Stdlib.max c.s_recv_cum seq + fresh;
          edges_push c.recv c.s_recv_cum r.at
        end;
        None
    | _ -> None

  let resolved t = t.resolved

  let pending t =
    Hashtbl.fold
      (fun _ c acc -> if c.s_has_issued then acc + Hashtbl.length c.sreqs else acc)
      t.conns 0

  let incomplete t =
    Hashtbl.fold
      (fun _ c acc ->
        if c.s_has_issued then acc + c.failed + Hashtbl.length c.sreqs else acc)
      t.conns 0

  (* Peak footprint probe for benches: live edge-window and pending
     request state across all connections. *)
  let live_state t =
    Hashtbl.fold
      (fun _ c acc -> acc + c.send.len + c.recv.len + Hashtbl.length c.sreqs)
      t.conns 0
end

(* {2 Aggregation} *)

type row = {
  phase : phase;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  mean_us : float;
  max_us : float;
}

let rank sorted q =
  let n = Array.length sorted in
  let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  sorted.(Stdlib.max 0 (Stdlib.min (n - 1) i))

let breakdown spans =
  match spans with
  | [] -> []
  | _ ->
      let n = List.length spans in
      List.map
        (fun ph ->
          let ds = Array.of_list (List.map (fun s -> duration s ph) spans) in
          Array.sort Stdlib.compare ds;
          let sum = Array.fold_left ( + ) 0 ds in
          {
            phase = ph;
            p50_us = Time.to_us (rank ds 0.50);
            p95_us = Time.to_us (rank ds 0.95);
            p99_us = Time.to_us (rank ds 0.99);
            mean_us = Time.to_us sum /. float_of_int n;
            max_us = Time.to_us ds.(Array.length ds - 1);
          })
        all_phases

(* {2 Rendering} *)

let pp ppf s =
  Format.fprintf ppf "@[<v>%s req %d: %.2fus end-to-end@," s.conn s.req
    (latency_us s);
  let t0 = s.milestones.(0) in
  List.iter
    (fun ph ->
      let d = duration s ph in
      let upto = ref 0 in
      let idx =
        match ph with
        | Client_send -> 0 | Send_hold -> 1 | Network_in -> 2
        | Server_queue -> 3 | Server_compute -> 4 | Reply_hold -> 5
        | Network_out -> 6 | Client_recv -> 7
      in
      upto := Time.diff s.milestones.(idx + 1) t0;
      Format.fprintf ppf "  %-14s %10.2fus  (ends at +%.2fus)@," (phase_name ph)
        (Time.to_us d) (Time.to_us !upto))
    all_phases;
  Format.fprintf ppf "@]"
