(* How the advertised window is carried.  [`Exact] keeps the
   simulator's idealized full-width windows (the pre-scaling
   behaviour); [`Fixed s] and [`Auto] opt into wire-faithful RFC 7323
   carriage, where the window is quantized through a shifted 16-bit
   field — [`Auto] picks the smallest shift that covers [rcv_buf]. *)
type wscale = [ `Exact | `Fixed of int | `Auto ]

type config = {
  mss : int;
  nagle : bool;
  cork : bool;
  tso_max : int option;
  cc_enabled : bool;
  delack_timeout : Sim.Time.span;
  delack_max_pending : int;
  rcv_buf : int;
  unit_mode : E2e.Units.t;
  exchange : E2e.Exchange.policy;
  sack : bool;
  wscale : wscale;
  persist : bool;
}

let default_config =
  {
    mss = 1448;
    nagle = true;
    cork = false;
    tso_max = None;
    cc_enabled = false;
    delack_timeout = Sim.Time.ms 40;
    delack_max_pending = 2;
    rcv_buf = 256 * 1024;
    unit_mode = E2e.Units.Bytes;
    exchange = E2e.Exchange.Periodic (Sim.Time.us 100);
    sack = true;
    wscale = `Exact;
    persist = true;
  }

type counters = {
  segs_out : int;
  pure_acks_out : int;
  bytes_out : int;
  segs_in : int;
  bytes_in : int;
  sends : int;
  nagle_holds : int;
  cork_holds : int;
  retransmits : int;
  rto_fires : int;
  fast_retransmits : int;
  sack_retransmits : int;
  probes_sent : int;
  challenges_sent : int;
}

(* Connection teardown follows the RFC 793 state diagram from
   ESTABLISHED onward (connections are created established, like a
   socketpair). *)
type conn_state =
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait
  | Closed

let state_to_string = function
  | Established -> "established"
  | Fin_wait_1 -> "fin-wait-1"
  | Fin_wait_2 -> "fin-wait-2"
  | Close_wait -> "close-wait"
  | Closing -> "closing"
  | Last_ack -> "last-ack"
  | Time_wait -> "time-wait"
  | Closed -> "closed"

(* The first and the latest hint share a peer sent, overwritten in
   place: float-only, so updates allocate nothing (times and totals are
   integers, held exactly). *)
type hint_window = {
  mutable first_time : float;
  mutable first_total : float;
  mutable first_integral : float;
  mutable last_time : float;
  mutable last_total : float;
  mutable last_integral : float;
}

(* Byte-to-unit translation of the three queues for the unit modes
   that count something other than bytes (see [unit_fifos] below). *)
type unit_fifos = {
  unacked_units : Unit_fifo.t;
  unread_units : Unit_fifo.t;
  ackdelay_units : Unit_fifo.t;
}

(* A transmitted, unacknowledged extent kept for retransmission.  The
   message-boundary metadata travels with it so a retransmitted segment
   still tells the receiver where application messages end.  The
   retransmit queue is a circular list threaded through [r_next]: the
   socket holds its newest entry, whose [r_next] is the oldest. *)
type retx_entry = {
  mutable r_seq : int;
  mutable r_payload : Slice.t;  (* shares the app write's bytes *)
  mutable r_rest : Slice.t list;  (* the payload's further views *)
  mutable r_len : int;  (* payload bytes, over all the views *)
  r_push : bool;
  r_msg_ends : int;
  r_fin : bool;
  mutable r_sacked : bool;  (* the peer selectively acknowledged this extent *)
  mutable r_next : retx_entry;
}

(* The empty retransmit queue. *)
let rec no_retx =
  { r_seq = 0; r_payload = Slice.empty; r_rest = []; r_len = 0; r_push = false;
    r_msg_ends = 0; r_fin = false; r_sacked = false; r_next = no_retx }

(* The stream positions where send() buffers end, oldest first: a
   circular list like the retransmit queue. *)
type boundary = { pos : int; mutable b_next : boundary }

let rec no_boundary = { pos = 0; b_next = no_boundary }

(* The state a clean connection never writes: loss recovery, persist
   probing, teardown, auto-cork and the rare-event counters.  A socket
   starts out sharing [no_cold], whose fields hold the defaults, and
   builds its own record the first time it writes one of them (see
   [cold]); reads need no check. *)
type cold = {
  (* reliability *)
  mutable rto_backoff : int;
  mutable recover : int;  (* recovery episode: snd_nxt at episode entry *)
  mutable retx_next : int;  (* hole recovery: next sequence to resend *)
  mutable dup_acks : int;
  (* zero-window persist probing *)
  mutable persist_timer : Sim.Engine.handle;
  mutable persist_backoff : int;
  (* teardown *)
  mutable fin_pending : bool;  (* close() called, FIN not yet emitted *)
  mutable fin_sent_seq : int;  (* -1 = no FIN sent *)
  mutable fin_fifo_adjusted : bool;  (* FIN seq excluded from unacked fifo once *)
  mutable peer_fin : bool;
  (* auto-cork *)
  mutable cork_signal : unit -> Sim.Time.t option;
  mutable cork_kick_armed : bool;
  (* rare-event counters *)
  mutable cork_holds : int;
  mutable retransmits : int;
  mutable rto_fires : int;
  mutable fast_retransmits : int;
  mutable sack_retransmits : int;
  mutable probes_sent : int;
  mutable challenges_sent : int;
}

let fresh_cold () =
  {
    rto_backoff = 0;
    recover = 0;
    retx_next = 0;
    dup_acks = 0;
    persist_timer = Sim.Engine.idle;
    persist_backoff = 0;
    fin_pending = false;
    fin_sent_seq = -1;
    fin_fifo_adjusted = false;
    peer_fin = false;
    cork_signal = (fun () -> None);
    cork_kick_armed = false;
    cork_holds = 0;
    retransmits = 0;
    rto_fires = 0;
    fast_retransmits = 0;
    sack_retransmits = 0;
    probes_sent = 0;
    challenges_sent = 0;
  }

(* Shared by every socket that has not built its own: never written. *)
let no_cold = fresh_cold ()

(* Fields are laid out hottest first: those every segment touches, then
   those of every ack and write, then the rarely used ones. *)
type t = {
  (* every segment, both directions *)
  engine : Sim.Engine.t;
  cfg : config;
  estim : E2e.Estimator.t;
  mutable snd_una : int;  (* oldest unacknowledged byte *)
  mutable snd_nxt : int;  (* next byte to put on the wire *)
  mutable rcv_nxt : int;  (* next in-order byte expected *)
  mutable rcv_wup : int;  (* highest ack we have sent *)
  mutable cold : cold;  (* [no_cold] until first written *)
  mutable trace : Sim.Trace.t option;
  (* sender state *)
  sndbuf : Bytebuf.t;
  mutable retx_last : retx_entry;  (* newest unacked extent; [no_retx] = none *)
  mutable boundaries : boundary;  (* newest send() buffer end; [no_boundary] = none *)
  mutable peer_window : int;
  mutable transmit : Segment.t -> unit;
  mutable rto_timer : Sim.Engine.handle;
  (* Nagle state: the decision is [Nagle.should_send] *)
  mutable nagle_enabled : bool;
  mutable nagle_min_send : int;  (* -1 = no AIMD threshold *)
  (* E2E option scheduling, see [E2e.Exchange.due] *)
  mutable exchange_last : Sim.Time.t;  (* -1 = never attached *)
  mutable exchange_requested : bool;
  (* hints (§3.3): the tracker whose share rides our segments, and the
     shares the peer sent us (built at the first one) *)
  mutable hint_tracker : E2e.Hints.t option;
  mutable hints_in : hint_window option;
  (* receiver state *)
  recvbuf : Bytebuf.t;
  mutable last_advertised : int;
  mutable ooo : Segment.t list;  (* out-of-order segments, sorted by seq *)
  mutable delack : Delayed_ack.t option;
  mutable readable_cb : unit -> unit;
  (* RTT estimation (RFC 7323 timestamps feeding RFC 6298) *)
  rtt : Rtt.t;
  mutable ts_recent : int;  (* latest peer ts_val seen on data, us; -1 = none *)
  (* window scaling: [None] = idealized full-width windows; [Some s] =
     every advertised window is quantized through a 16-bit field
     shifted left by [s] (RFC 7323) *)
  mutable snd_wscale : int option;
  mutable max_snd_wnd : int;  (* largest peer window seen (RFC 5961 §5) *)
  (* congestion control (Reno-style, optional) *)
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable conn_state : conn_state;
  (* [None] in byte units, where a queue's units are its bytes and the
     estimator's queue size is its pending byte count *)
  unit_fifos : unit_fifos option;
  (* counters *)
  mutable segs_out : int;
  mutable pure_acks_out : int;
  mutable segs_in : int;
  mutable sends : int;
  mutable nagle_holds : int;
  mutable nagle_toggles : int;
  label : string;
}

(* The socket's own cold record, built at the first write. *)
let cold t =
  if t.cold != no_cold then t.cold
  else begin
    let c = fresh_cold () in
    t.cold <- c;
    c
  end

let has_cold_state t = t.cold != no_cold

let label t = t.label

let initial_cwnd_segments = 10

(* What shift this side would offer in a handshake; [None] = not
   offering (idealized full-width windows). *)
let offered_wscale cfg =
  match cfg.wscale with
  | `Exact -> None
  | `Fixed s ->
    if s < 0 || s > 14 then invalid_arg "Socket: window scale shift outside 0-14";
    Some s
  | `Auto -> Some (Options.wscale_for ~rcv_buf:cfg.rcv_buf)

let create ?(label = "sock") engine cfg =
  if cfg.mss <= 0 then invalid_arg "Socket.create: mss must be positive";
  if cfg.rcv_buf < cfg.mss then invalid_arg "Socket.create: rcv_buf below one MSS";
  {
    engine;
    cfg;
    estim = E2e.Estimator.create ~at:(Sim.Engine.now engine);
    snd_una = 0;
    snd_nxt = 0;
    rcv_nxt = 0;
    rcv_wup = 0;
    cold = no_cold;
    trace = None;
    sndbuf = Bytebuf.create ();
    retx_last = no_retx;
    boundaries = no_boundary;
    peer_window = cfg.rcv_buf;
    transmit = (fun _ -> failwith "Socket: transmit path not wired");
    rto_timer = Sim.Engine.idle;
    nagle_enabled = cfg.nagle;
    nagle_min_send = -1;
    exchange_last = -1;
    exchange_requested = false;
    hint_tracker = None;
    hints_in = None;
    recvbuf = Bytebuf.create ();
    last_advertised = cfg.rcv_buf;
    ooo = [];
    delack = None;
    readable_cb = ignore;
    rtt = Rtt.create ();
    ts_recent = -1;
    snd_wscale = offered_wscale cfg;
    max_snd_wnd = cfg.rcv_buf;
    cwnd = initial_cwnd_segments * cfg.mss;
    ssthresh = max_int;
    conn_state = Established;
    unit_fifos =
      (match cfg.unit_mode with
      | E2e.Units.Bytes | E2e.Units.Hinted -> None
      | E2e.Units.Packets | E2e.Units.Syscalls ->
        Some
          { unacked_units = Unit_fifo.create (); unread_units = Unit_fifo.create ();
            ackdelay_units = Unit_fifo.create () });
    segs_out = 0;
    pure_acks_out = 0;
    segs_in = 0;
    sends = 0;
    nagle_holds = 0;
    nagle_toggles = 0;
    label;
  }

(* RFC 7323 §2: scaling binds only when both sides offer it.  A
   [Conn] calls this after creating the pair; a realist socket whose
   peer stays idealized falls back to an unshifted (16-bit capped)
   window, while two idealized sockets keep full-width windows. *)
let negotiate_window_scaling a b =
  match (a.snd_wscale, b.snd_wscale) with
  | Some _, Some _ | None, None -> ()
  | Some _, None -> a.snd_wscale <- Some 0
  | None, Some _ -> b.snd_wscale <- Some 0

let window_shift t = t.snd_wscale

let now t = Sim.Engine.now t.engine

(* Call sites guard event-payload construction behind [tracing] so the
   disabled path is a branch and nothing more. *)
let tracing t = match t.trace with Some tr -> Sim.Trace.enabled tr | None -> false

let event t ev =
  match t.trace with
  | Some tr -> Sim.Trace.event tr ~at:(now t) ~id:t.label ev
  | None -> ()

(* The pending bytes of a queue and the units that draining [bytes] of
   it completes; [size] is its estimator queue size. *)
let pending_bytes t queue ~size =
  match t.unit_fifos with None -> size | Some f -> Unit_fifo.pending_bytes (queue f)

let drain_units t queue ~bytes =
  match t.unit_fifos with None -> bytes | Some f -> Unit_fifo.drain (queue f) ~bytes

let push_units t queue ~bytes ~units =
  match t.unit_fifos with None -> () | Some f -> Unit_fifo.push (queue f) ~bytes ~units

let unacked f = f.unacked_units
let unread f = f.unread_units
let ackdelay f = f.ackdelay_units

let advertised_window t = Stdlib.max 0 (t.cfg.rcv_buf - Bytebuf.length t.recvbuf)

(* The window as it survives the wire: exact in idealized mode,
   quantized through a shifted 16-bit field when scaling is on.  The
   quantization (round down to a multiple of 2^shift, saturate at
   65535 << shift) is the whole realism point — an unscaled peer caps
   at 64 KiB regardless of buffer. *)
let wire_window t =
  let w = advertised_window t in
  match t.snd_wscale with
  | None -> w
  | Some s -> Options.unscale_window ~shift:s (Options.scale_window ~shift:s w)

(* Merge the sorted out-of-order queue into at most
   [Options.max_sack_blocks] disjoint [left, right) ranges, lowest
   first.  Only called when [t.ooo] is non-empty, so loss-free flows
   never allocate here. *)
let sack_blocks ooo =
  let rec merge acc = function
    | [] -> List.rev acc
    | (seg : Segment.t) :: rest ->
      let s = seg.seq and e = seg.seq + Segment.seq_len seg in
      (match acc with
      | (l, r) :: tl when s <= r -> merge ((l, Stdlib.max r e) :: tl) rest
      | _ -> merge ((s, e) :: acc) rest)
  in
  let rec take n = function
    | [] -> []
    | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl
  in
  take Options.max_sack_blocks (merge [] ooo)

let in_flight t = t.snd_nxt - t.snd_una

let send_window t =
  if t.cfg.cc_enabled then Stdlib.min t.peer_window t.cwnd else t.peer_window

(* Record that an ack for everything received is about to leave in some
   segment: drain the ackdelay queue and reset the delayed-ack state. *)
let note_ack_leaving t =
  let unacked_rx = t.rcv_nxt - t.rcv_wup in
  if unacked_rx > 0 then begin
    (* the peer's FIN consumes a sequence number that carries no
       payload, so clamp to the bytes actually queued *)
    let bytes =
      Stdlib.min unacked_rx
        (pending_bytes t ackdelay ~size:(E2e.Estimator.ackdelay_size t.estim))
    in
    let units = drain_units t ackdelay ~bytes in
    if units > 0 then E2e.Estimator.track_ackdelay t.estim ~at:(now t) (-units);
    t.rcv_wup <- t.rcv_nxt
  end;
  match t.delack with Some d -> Delayed_ack.on_ack_sent d | None -> ()

(* The metadata due on this segment, if any: the queue state, with the
   hint alongside it. *)
let e2e_due t ~at =
  if
    E2e.Exchange.due t.cfg.exchange ~last_sent:t.exchange_last
      ~requested:t.exchange_requested ~now:at
  then begin
    t.exchange_last <- at;
    t.exchange_requested <- false;
    E2e.Estimator.share t.estim ~at ~hint:t.hint_tracker
  end
  else E2e.Exchange.none

(* Put one segment on the wire, piggybacking the cumulative ack and
   whatever metadata is due.  [seq] may be below [snd_nxt] for a
   retransmission. *)
let put_on_wire ?(fin = false) ?(rst = false) t ~seq ~payload ~rest ~len ~push ~msg_ends =
  let at = now t in
  let e2e = e2e_due t ~at in
  let seg =
    {
      Segment.seq;
      ack = t.rcv_nxt;
      payload;
      payload_rest = rest;
      payload_len = len;
      window = wire_window t;
      push;
      msg_ends;
      e2e;
      ts_val = Sim.Time.to_ns at / 1_000;
      ts_ecr = t.ts_recent;
      sack = (if t.cfg.sack && t.ooo <> [] then sack_blocks t.ooo else []);
      rst;
      syn = false;
      fin;
    }
  in
  note_ack_leaving t;
  t.last_advertised <- seg.window;
  if len = 0 && not fin && not rst then
    t.pure_acks_out <- t.pure_acks_out + 1;
  t.transmit seg

(* {2 The retransmit queue} *)

let retx_len e = e.r_len + if e.r_fin then 1 else 0

let retx_empty t = t.retx_last == no_retx

(* The oldest entry; only called on a non-empty queue. *)
let retx_head t = t.retx_last.r_next

let push_retx t e =
  let last = t.retx_last in
  if last == no_retx then e.r_next <- e
  else begin
    e.r_next <- last.r_next;
    last.r_next <- e
  end;
  t.retx_last <- e

let pop_retx t =
  let last = t.retx_last in
  let head = last.r_next in
  if head == last then t.retx_last <- no_retx else last.r_next <- head.r_next

(* [f] on every entry from [e] to the newest, oldest first, while it
   returns [true]. *)
let rec retx_walk t e f = if f e && e != t.retx_last then retx_walk t e.r_next f

let retx_iter t f = if not (retx_empty t) then retx_walk t (retx_head t) (fun e -> f e; true)

(* {2 Retransmission timer} *)

let resend t e =
  put_on_wire t ~fin:e.r_fin ~seq:e.r_seq ~payload:e.r_payload ~rest:e.r_rest ~len:e.r_len
    ~push:e.r_push ~msg_ends:e.r_msg_ends

let current_rto t =
  let base = Rtt.rto t.rtt in
  let scaled = base lsl Stdlib.min t.cold.rto_backoff 6 in
  Stdlib.min scaled Rtt.max_rto

let cancel_rto t =
  Sim.Engine.cancel t.engine t.rto_timer;
  t.rto_timer <- Sim.Engine.idle

let rec arm_rto t =
  if (not (Sim.Engine.is_pending t.rto_timer)) && in_flight t > 0 then
    t.rto_timer <- Sim.Engine.schedule t.engine ~after:(current_rto t) (fun () -> on_rto t)

and restart_rto t =
  cancel_rto t;
  arm_rto t

and retransmit_head t ~counter =
  if not (retx_empty t) then begin
    let entry = retx_head t and c = cold t in
    counter c;
    c.retransmits <- c.retransmits + 1;
    if tracing t then
      event t
        (Sim.Trace.Segment_sent
           { seq = entry.r_seq; len = entry.r_len;
             push = entry.r_push; retx = true });
    resend t entry
  end

and on_rto t =
  t.rto_timer <- Sim.Engine.idle;
  if in_flight t > 0 then begin
    (* Loss signal: collapse the congestion window and back off. *)
    if t.cfg.cc_enabled then begin
      t.ssthresh <- Stdlib.max (in_flight t / 2) (2 * t.cfg.mss);
      t.cwnd <- t.cfg.mss
    end;
    let c = cold t in
    c.rto_backoff <- c.rto_backoff + 1;
    (* A timeout invalidates the SACK scoreboard (conservative RFC 2018
       reneging posture): recovery restarts from go-back-N and fresh
       SACK blocks re-mark whatever the receiver still holds. *)
    retx_iter t (fun e -> e.r_sacked <- false);
    (* Everything below [snd_nxt] is suspect after a timeout; partial
       acks drive go-back-N retransmission up to this mark, restarting
       from the front of the hole. *)
    c.recover <- Stdlib.max c.recover t.snd_nxt;
    c.retx_next <- t.snd_una;
    retransmit_head t ~counter:(fun c -> c.rto_fires <- c.rto_fires + 1);
    if not (retx_empty t) then begin
      let e = retx_head t in
      c.retx_next <- e.r_seq + retx_len e
    end;
    arm_rto t
  end

(* {2 Zero-window persist timer} *)

let cancel_persist t =
  let c = t.cold in
  if c != no_cold then begin
    Sim.Engine.cancel t.engine c.persist_timer;
    c.persist_timer <- Sim.Engine.idle
  end

(* The persist timer runs exactly when the connection would otherwise
   be deaf: data queued, nothing in flight (so no RTO), and the peer's
   last word was a closed window.  If the peer's window-update ack was
   lost, nothing but this timer ever speaks again. *)
let persist_due t =
  t.cfg.persist
  && t.peer_window <= 0
  && in_flight t = 0
  && Bytebuf.length t.sndbuf > 0
  && (match t.conn_state with Time_wait | Closed -> false | _ -> true)

let current_persist_timeout t =
  let base = Rtt.rto t.rtt in
  let scaled = base lsl Stdlib.min t.cold.persist_backoff 6 in
  Stdlib.min scaled Rtt.max_rto

(* Probes per zero-window episode.  Real stacks probe indefinitely; a
   simulator must quiesce when the peer application never reads, so the
   budget bounds the episode.  It is far above what any recoverable
   stall needs (a lost window update is repaired by the first probe
   that gets through) and resets whenever the window reopens. *)
let max_persist_probes = 10

(* {2 Transmission} *)

let emit_fresh t ~payload ~rest ~len ~push ~msg_ends =
  let seq = t.snd_nxt in
  t.snd_nxt <- t.snd_nxt + len;
  t.segs_out <- t.segs_out + 1;
  push_retx t
    { r_seq = seq; r_payload = payload; r_rest = rest; r_len = len; r_push = push;
      r_msg_ends = msg_ends; r_fin = false; r_sacked = false; r_next = no_retx };
  if E2e.Units.equal t.cfg.unit_mode E2e.Units.Packets then begin
    E2e.Estimator.track_unacked t.estim ~at:(now t) 1;
    push_units t unacked ~bytes:len ~units:1
  end;
  if tracing t then
    event t (Sim.Trace.Segment_sent { seq; len; push; retx = false });
  put_on_wire t ~seq ~payload ~rest ~len ~push ~msg_ends;
  arm_rto t

let send_pure_ack t =
  put_on_wire t ~seq:t.snd_nxt ~payload:Slice.empty ~rest:[] ~len:0 ~push:false ~msg_ends:0

let push_boundary t pos =
  let last = t.boundaries in
  let b = { pos; b_next = no_boundary } in
  if last == no_boundary then b.b_next <- b
  else begin
    b.b_next <- last.b_next;
    last.b_next <- b
  end;
  t.boundaries <- b

(* Pop the send()-buffer boundaries at or below [upto], the end of the
   bytes about to leave, counting them from [n]; the count comes back
   negated when the last one popped is [upto] itself (the segment ends
   a write, so it carries PSH). *)
let rec pop_boundaries t ~upto n =
  let last = t.boundaries in
  let head = last.b_next in
  if last == no_boundary || head.pos > upto then n
  else begin
    if head == last then t.boundaries <- no_boundary else last.b_next <- head.b_next;
    if head.pos = upto then -(n + 1) else pop_boundaries t ~upto (n + 1)
  end

let probe_byte = Slice.of_string "?"

let rec arm_persist t =
  if (not (Sim.Engine.is_pending t.cold.persist_timer)) && persist_due t then
    (cold t).persist_timer <-
      Sim.Engine.schedule t.engine ~after:(current_persist_timeout t) (fun () -> on_persist t)

and on_persist t =
  let c = cold t in
  c.persist_timer <- Sim.Engine.idle;
  if persist_due t && c.persist_backoff < max_persist_probes then begin
    c.persist_backoff <- c.persist_backoff + 1;
    c.probes_sent <- c.probes_sent + 1;
    (* The classic BSD window probe: one garbage byte just below the
       window ([snd_una - 1]).  The receiver's duplicate-segment path
       discards the payload wholesale and answers with an immediate ack
       carrying its current window — exactly the response a pure ack
       would never elicit — while no sequence space is consumed and no
       retransmission state is created.  If the window has reopened
       (the lost-update deadlock), that ack revives transmission; if it
       is still shut, we re-arm ourselves with doubled backoff. *)
    let seq = t.snd_una - 1 in
    if tracing t then
      event t (Sim.Trace.Probe_sent { seq; backoff = c.persist_backoff });
    put_on_wire t ~seq ~payload:probe_byte ~rest:[] ~len:1 ~push:false ~msg_ends:0;
    arm_persist t
  end

and try_transmit t =
  maybe_emit_fin t;
  let pending = Bytebuf.length t.sndbuf in
  if pending > 0 then begin
    let window_avail = send_window t - in_flight t in
    (* With TSO the stack hands the NIC super-segments up to tso_max;
       they are cut to MSS on the wire by the transmit path. *)
    let max_chunk =
      match t.cfg.tso_max with
      | Some m -> Stdlib.max t.cfg.mss m
      | None -> t.cfg.mss
    in
    let chunk = Stdlib.min pending (Stdlib.min max_chunk window_avail) in
    if chunk > 0 then begin
      if
        not
          (Nagle.should_send ~enabled:t.nagle_enabled ~min_send:t.nagle_min_send ~mss:t.cfg.mss
             ~chunk ~in_flight:(in_flight t))
      then begin
        t.nagle_holds <- t.nagle_holds + 1;
        if tracing t then
          event t (Sim.Trace.Nagle_hold { chunk; in_flight = in_flight t })
      end
      else begin
        match if t.cfg.cork && chunk < t.cfg.mss then t.cold.cork_signal () else None with
        | Some free_at ->
          (* Auto-cork: transmitter busy and the segment is small; hold
             until the NIC frees and retry. *)
          let c = cold t in
          c.cork_holds <- c.cork_holds + 1;
          if tracing t then event t (Sim.Trace.Cork_hold { chunk });
          if not c.cork_kick_armed then begin
            c.cork_kick_armed <- true;
            Sim.Engine.post_at t.engine ~at:free_at (fun () ->
                c.cork_kick_armed <- false;
                try_transmit t)
          end
        | None ->
          let payload = Bytebuf.take_front t.sndbuf chunk in
          let rest = Bytebuf.take t.sndbuf (chunk - payload.Slice.len) in
          (* The buffers that end inside the segment count its
             message ends; one ending exactly at its end sets PSH. *)
          let ends = pop_boundaries t ~upto:(t.snd_nxt + chunk) 0 in
          emit_fresh t ~payload ~rest ~len:chunk ~push:(ends < 0) ~msg_ends:(abs ends);
          try_transmit t
      end
    end
    else
      (* Data queued but the send window is shut.  If nothing is in
         flight either, no ack or timer is coming: start (or keep) the
         persist timer so a lost window update cannot strand us. *)
      arm_persist t
  end
  else maybe_emit_fin t

(* The FIN leaves once every queued byte has been handed to the wire;
   it consumes one sequence number and is retransmittable. *)
and maybe_emit_fin t =
  let c = t.cold in
  (* [fin_pending] is only ever set in a socket's own cold record *)
  if c.fin_pending && Bytebuf.is_empty t.sndbuf && c.fin_sent_seq < 0 then begin
    let seq = t.snd_nxt in
    c.fin_sent_seq <- seq;
    c.fin_pending <- false;
    t.snd_nxt <- t.snd_nxt + 1;
    push_retx t
      { r_seq = seq; r_payload = Slice.empty; r_rest = []; r_len = 0; r_push = false;
        r_msg_ends = 0; r_fin = true; r_sacked = false; r_next = no_retx };
    put_on_wire t ~fin:true ~seq ~payload:Slice.empty ~rest:[] ~len:0 ~push:false
      ~msg_ends:0;
    arm_rto t
  end

let kick = try_transmit

let check_open t =
  match t.conn_state with
  | Established | Close_wait -> ()
  | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack | Time_wait | Closed ->
    invalid_arg "Socket.send: socket is closing or closed"

(* Account for a write of [len > 0] bytes just appended to [sndbuf]. *)
let wrote t len =
  t.sends <- t.sends + 1;
  (* no FIN is out while writes are allowed, so the stream position of
     the write's end is everything handed to the wire plus the queue *)
  push_boundary t (t.snd_nxt + Bytebuf.length t.sndbuf);
  let at = now t in
  (match t.cfg.unit_mode with
  | E2e.Units.Bytes | E2e.Units.Hinted ->
    E2e.Estimator.track_unacked t.estim ~at len
  | E2e.Units.Syscalls ->
    E2e.Estimator.track_unacked t.estim ~at 1;
    push_units t unacked ~bytes:len ~units:1
  | E2e.Units.Packets -> (* tracked at segment transmission *) ());
  try_transmit t

let send t data =
  check_open t;
  let len = String.length data in
  if len > 0 then begin
    Bytebuf.append t.sndbuf data;
    wrote t len
  end

let rec append_all buf = function
  | [] -> ()
  | s :: rest ->
    Bytebuf.append_slice buf s;
    append_all buf rest

let send_slices t slices =
  check_open t;
  let len = Slice.total_length slices in
  if len > 0 then begin
    append_all t.sndbuf slices;
    wrote t len
  end

let ensure_delack t =
  match t.delack with
  | Some d -> d
  | None ->
    let d =
      Delayed_ack.create t.engine ~timeout:t.cfg.delack_timeout
        ~max_pending:t.cfg.delack_max_pending
        ~send_ack:(fun () -> send_pure_ack t)
        ()
    in
    (match t.trace with
    | Some tr -> Delayed_ack.set_trace d tr ~id:t.label
    | None -> ());
    t.delack <- Some d;
    d

let rx_units t ~len ~msg_ends =
  match t.cfg.unit_mode with
  | E2e.Units.Bytes | E2e.Units.Hinted -> len
  | E2e.Units.Packets -> 1
  | E2e.Units.Syscalls -> msg_ends

(* {2 Teardown helpers} *)

let enter_time_wait t =
  t.conn_state <- Time_wait;
  (* 2MSL stand-in: twice the RTO floor is plenty at simulation scale *)
  Sim.Engine.post t.engine ~after:(2 * Rtt.min_rto) (fun () ->
      if t.conn_state = Time_wait then t.conn_state <- Closed)

(* {2 Acknowledgment processing (sender side)} *)

(* Drop the first [cut] payload bytes of [e], a view at a time. *)
let rec trim_front e cut =
  let n = e.r_payload.Slice.len in
  match e.r_rest with
  | next :: rest when cut >= n ->
    e.r_payload <- next;
    e.r_rest <- rest;
    trim_front e (cut - n)
  | _ :: _ | [] -> e.r_payload <- Slice.sub e.r_payload cut (n - cut)

let rec drop_acked_retx t =
  if not (retx_empty t) then begin
    let e = retx_head t in
    if e.r_seq + retx_len e <= t.snd_una then begin
      pop_retx t;
      drop_acked_retx t
    end
    else if e.r_seq < t.snd_una then begin
      (* partial coverage: trim the acknowledged prefix *)
      let cut = t.snd_una - e.r_seq in
      trim_front e cut;
      e.r_len <- e.r_len - cut;
      e.r_seq <- t.snd_una
    end
  end

(* Resend, oldest first, every unsacked extent that ends past [from]
   and starts below [upto], while the [budget] of bytes lasts. *)
let resend_holes t ~upto ~from ~budget ~sack =
  let c = cold t in
  let budget = ref budget in
  if not (retx_empty t) then
    retx_walk t (retx_head t) (fun e ->
        e.r_seq < upto
        &&
        (* A sacked extent is sitting in the peer's reassembly queue;
           resending it would be pure waste. *)
        if e.r_seq + retx_len e > from && not e.r_sacked then
          !budget > 0
          && begin
            budget := !budget - e.r_len;
            c.retransmits <- c.retransmits + 1;
            if sack then c.sack_retransmits <- c.sack_retransmits + 1;
            if tracing t then
              event t
                (Sim.Trace.Segment_sent
                   { seq = e.r_seq; len = e.r_len; push = e.r_push; retx = true });
            resend t e;
            c.retx_next <- e.r_seq + retx_len e;
            true
          end
        else true)

(* Go-back-N after a timeout.  A burst loss (blackout, outage) empties
   the pipe: nothing else is in flight, so no duplicate acks arrive and
   fast retransmit never fires.  Without this, each RTO retransmits one
   segment and the ack for it releases nothing — the hole heals at one
   segment per RTO (200ms+), which on any real backlog is a stall.
   Instead, every ack that lands while [snd_una] is still below the
   pre-RTO [recover] mark retransmits the next cwnd's worth of the
   queue, so recovery slow-starts like a fresh connection. *)
let retransmit_hole t =
  let c = t.cold in
  if t.snd_una < c.recover && not (retx_empty t) then begin
    (* [retx_next .. recover) is the unsent remainder of the hole;
       [snd_una .. retx_next) is already back in flight, so the budget
       is whatever cwnd has left over it.  Each resend advances
       [retx_next] — no segment is retransmitted twice per episode
       (another RTO resets the pointer if resends are lost too).
       Cwnd-collapsed edge case, pinned by a unit test: right after an
       RTO with cc enabled, cwnd = 1 MSS and the head retransmission
       already consumed it, so the budget here is 0 even though
       [retx_next < recover].  The chosen behaviour is to resend
       nothing now but still [restart_rto] below — the episode can
       never stall, because either the next ack frees budget or the
       timer re-fires. *)
    let from = Stdlib.max c.retx_next t.snd_una in
    let in_flight_retx = from - t.snd_una in
    resend_holes t ~upto:c.recover ~from
      ~budget:(Stdlib.max (t.cwnd - in_flight_retx) 0) ~sack:false;
    restart_rto t
  end

(* {2 SACK scoreboard (sender side)} *)

(* Mark every retransmission-queue extent fully covered by one of the
   peer's SACK blocks.  Only called with non-empty [blocks], which only
   ever exist under loss — the loss-free ack path never walks the
   queue. *)
let ingest_sack t blocks =
  retx_iter t (fun e ->
      if not e.r_sacked then begin
        let s = e.r_seq and en = e.r_seq + retx_len e in
        if List.exists (fun (l, r) -> l <= s && en <= r) blocks then
          e.r_sacked <- true
      end)

let has_sack_info t =
  let found = ref false in
  retx_iter t (fun e -> if e.r_sacked then found := true);
  !found

let highest_sacked t =
  let hs = ref (-1) in
  retx_iter t (fun e -> if e.r_sacked then hs := Stdlib.max !hs (e.r_seq + retx_len e));
  !hs

(* SACK-driven hole recovery (RFC 6675 in spirit): everything unsacked
   strictly below the highest SACKed byte is deemed lost and resent
   once per episode within the cwnd budget.  Unlike the go-back-N
   sweep this never touches data above the last SACK block — that data
   is still in flight and probably fine, which is exactly why SACK
   beats go-back-N under partial bursty loss. *)
let sack_retransmit_holes t =
  let hs = highest_sacked t in
  if hs >= 0 then begin
    let from = Stdlib.max t.cold.retx_next t.snd_una in
    let in_flight_retx = Stdlib.max 0 (from - t.snd_una) in
    resend_holes t ~upto:hs ~from
      ~budget:(Stdlib.max (t.cwnd - in_flight_retx) 0) ~sack:true;
    restart_rto t
  end

(* Keep an open recovery episode moving on every ack: scoreboard-led
   when SACK information exists, go-back-N otherwise.  The scoreboard
   drains naturally as [snd_una] passes it, so a blackout recovery
   falls back to the sweep for the sackless tail. *)
let continue_recovery t =
  if t.snd_una < t.cold.recover && not (retx_empty t) then
    if t.cfg.sack && has_sack_info t then sack_retransmit_holes t
    else retransmit_hole t

let process_ack t (seg : Segment.t) ~at =
  (* Fresh SACK blocks first, so both the fast-retransmit decision and
     any recovery sweep below see the up-to-date scoreboard. *)
  if t.cfg.sack && seg.sack <> [] then ingest_sack t seg.sack;
  let acked = seg.ack - t.snd_una in
  if acked > 0 then begin
    if tracing t then
      event t (Sim.Trace.Ack_received { acked; una = t.snd_una + acked });
    t.snd_una <- t.snd_una + acked;
    if has_cold_state t then begin
      t.cold.dup_acks <- 0;
      t.cold.rto_backoff <- 0
    end;
    drop_acked_retx t;
    if in_flight t = 0 then cancel_rto t else restart_rto t;
    (* congestion window growth *)
    if t.cfg.cc_enabled then begin
      if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd + acked (* slow start *)
      else t.cwnd <- t.cwnd + Stdlib.max 1 (t.cfg.mss * t.cfg.mss / t.cwnd);
      t.cwnd <- Stdlib.min t.cwnd (64 * 1024 * 1024)
    end;
    continue_recovery t;
    (* the FIN consumes one sequence number that never entered the
       byte-accounting fifo *)
    let c = t.cold in
    let fin_acked = c.fin_sent_seq >= 0 && seg.ack > c.fin_sent_seq in
    let fifo_bytes =
      if fin_acked && not c.fin_fifo_adjusted then begin
        c.fin_fifo_adjusted <- true;
        acked - 1
      end
      else acked
    in
    let fifo_bytes =
      Stdlib.min fifo_bytes (pending_bytes t unacked ~size:(E2e.Estimator.unacked_size t.estim))
    in
    let units = drain_units t unacked ~bytes:fifo_bytes in
    if units > 0 then E2e.Estimator.track_unacked t.estim ~at (-units);
    (* teardown progress: our FIN is acknowledged *)
    if fin_acked then begin
      match t.conn_state with
      | Fin_wait_1 -> t.conn_state <- Fin_wait_2
      | Closing -> enter_time_wait t
      | Last_ack -> t.conn_state <- Closed
      | Established | Fin_wait_2 | Close_wait | Time_wait | Closed -> ()
    end;
    (* RTT sample from the echoed timestamp (RFC 7323 resolves Karn's
       retransmission ambiguity because retransmits carry fresh
       timestamps). *)
    if seg.ts_ecr >= 0 then begin
      let sample_ns = Sim.Time.to_ns at - (seg.ts_ecr * 1_000) in
      if sample_ns >= 0 then Rtt.sample t.rtt sample_ns
    end
  end
  else if Segment.is_pure_ack seg && seg.ack = t.snd_una && in_flight t > 0 then begin
    (* duplicate ack: the receiver is missing something *)
    let c = cold t in
    c.dup_acks <- c.dup_acks + 1;
    if c.dup_acks = 3 then begin
      if t.cfg.cc_enabled then begin
        t.ssthresh <- Stdlib.max (in_flight t / 2) (2 * t.cfg.mss);
        t.cwnd <- t.ssthresh
      end;
      if t.cfg.sack && has_sack_info t then begin
        (* Scoreboard-led fast recovery: open an episode up to the
           current [snd_nxt] and resend only the holes below the
           highest SACKed byte.  Each later duplicate or partial ack
           continues the episode — no waiting three more dup acks per
           lost segment, and no RTO unless the resends are lost too. *)
        c.fast_retransmits <- c.fast_retransmits + 1;
        c.recover <- Stdlib.max c.recover t.snd_nxt;
        c.retx_next <- t.snd_una;
        sack_retransmit_holes t
      end
      else begin
        retransmit_head t ~counter:(fun c ->
            c.fast_retransmits <- c.fast_retransmits + 1);
        restart_rto t
      end
    end
    else if c.dup_acks > 3 && t.cfg.sack then continue_recovery t
  end;
  t.peer_window <- seg.window;
  if seg.window > t.max_snd_wnd then t.max_snd_wnd <- seg.window;
  if seg.window > 0 then begin
    (* the peer's window opened (or was never shut): any persist
       episode is over *)
    if has_cold_state t then begin
      if Sim.Engine.is_pending t.cold.persist_timer then cancel_persist t;
      t.cold.persist_backoff <- 0
    end
  end

(* {2 In-order delivery (receiver side)} *)

(* Append the views [s :: rest] to [buf], less their first [skip]
   bytes. *)
let rec append_from buf skip s rest =
  let n = s.Slice.len in
  if skip < n then Bytebuf.append_slice buf (Slice.sub s skip (n - skip));
  match rest with
  | [] -> ()
  | s' :: rest' -> append_from buf (Stdlib.max 0 (skip - n)) s' rest'

let accept_payload t (seg : Segment.t) ~at =
  (* [seg.seq <= t.rcv_nxt < seg.seq + len]: append the new suffix. *)
  let len = seg.Segment.payload_len in
  let skip = t.rcv_nxt - seg.seq in
  let fresh = len - skip in
  if tracing t then
    event t (Sim.Trace.Segment_received { seq = seg.seq; fresh });
  t.rcv_nxt <- t.rcv_nxt + fresh;
  (match seg.payload_rest with
  | [] -> Bytebuf.append_slice t.recvbuf (Slice.sub seg.payload skip fresh)
  | rest -> append_from t.recvbuf skip seg.payload rest);
  let units = rx_units t ~len:fresh ~msg_ends:seg.msg_ends in
  if units > 0 then begin
    E2e.Estimator.track_unread t.estim ~at units;
    E2e.Estimator.track_ackdelay t.estim ~at units
  end;
  push_units t unread ~bytes:fresh ~units;
  push_units t ackdelay ~bytes:fresh ~units;
  if seg.ts_val >= 0 then t.ts_recent <- seg.ts_val

let process_fin t =
  if not t.cold.peer_fin then begin
    if tracing t then
      event t (Sim.Trace.Fin_received { rcv_nxt = t.rcv_nxt + 1 });
    (cold t).peer_fin <- true;
    t.rcv_nxt <- t.rcv_nxt + 1;
    (match t.conn_state with
    | Established -> t.conn_state <- Close_wait
    | Fin_wait_1 ->
      (* simultaneous close: our FIN is out but unacked *)
      t.conn_state <- Closing
    | Fin_wait_2 -> enter_time_wait t
    | Close_wait | Closing | Last_ack | Time_wait | Closed -> ())
  end

(* Pull any now-contiguous out-of-order segments into the stream. *)
let rec drain_ooo t ~at =
  match t.ooo with
  | seg :: rest when seg.Segment.seq <= t.rcv_nxt ->
    t.ooo <- rest;
    if seg.Segment.seq + seg.Segment.payload_len > t.rcv_nxt then accept_payload t seg ~at;
    if seg.Segment.fin && seg.Segment.seq + Segment.seq_len seg > t.rcv_nxt then
      process_fin t;
    drain_ooo t ~at
  | _ -> ()

let insert_ooo t seg =
  let seq = seg.Segment.seq in
  if not (List.exists (fun (s : Segment.t) -> s.seq = seq) t.ooo) then
    t.ooo <-
      List.sort (fun (a : Segment.t) (b : Segment.t) -> compare a.seq b.seq)
        (seg :: t.ooo)

let process_payload t (seg : Segment.t) ~at =
  let seg_end = seg.seq + Segment.seq_len seg in
  if seg_end <= t.rcv_nxt then
    (* pure duplicate (a retransmission we already have): re-ack so the
       sender can advance *)
    send_pure_ack t
  else if seg.seq > t.rcv_nxt then begin
    (* a hole precedes this segment: buffer and emit an immediate
       duplicate ack (RFC 5681) *)
    insert_ooo t seg;
    send_pure_ack t
  end
  else begin
    accept_payload t seg ~at;
    drain_ooo t ~at;
    if seg.fin then process_fin t;
    Delayed_ack.on_data_segment (ensure_delack t);
    (* Acks must not linger behind a FIN or buffered out-of-order
       data. *)
    if t.ooo <> [] || seg.fin then send_pure_ack t
  end

(* Answer a suspicious segment with a challenge ack (RFC 5961): it
   confirms our current state to a genuine peer without acting on a
   possibly-forged segment. *)
let challenge t ~kind ~seq =
  let c = cold t in
  c.challenges_sent <- c.challenges_sent + 1;
  if tracing t then event t (Sim.Trace.Segment_challenged { seq; kind });
  send_pure_ack t

let rec receive_one t ~notify (seg : Segment.t) =
  let at = now t in
  t.segs_in <- t.segs_in + 1;
  if seg.syn then
    (* §4: a SYN while synchronized is never acted on, only challenged. *)
    (match Rfc5961.check_syn () with
    | Rfc5961.Challenge -> challenge t ~kind:"syn" ~seq:seg.seq
    | Rfc5961.Accept | Rfc5961.Discard -> ())
  else if seg.rst then (
    match
      Rfc5961.check_rst
        ~rcv_nxt:(Seq32.of_int t.rcv_nxt)
        ~rcv_wnd:(advertised_window t)
        ~seq:(Seq32.of_int seg.seq)
    with
    | Rfc5961.Accept ->
      cancel_rto t;
      cancel_persist t;
      t.conn_state <- Closed
    | Rfc5961.Challenge -> challenge t ~kind:"rst" ~seq:seg.seq
    | Rfc5961.Discard -> ())
  else if
    not
      (Rfc5961.ack_acceptable
         ~snd_una:(Seq32.of_int t.snd_una)
         ~snd_nxt:(Seq32.of_int t.snd_nxt)
         ~max_wnd:t.max_snd_wnd
         ~ack:(Seq32.of_int seg.ack))
  then
    (* §5: an ack from far outside anything we ever sent — a blind
       injection attempt, not a stale ack.  Challenge and drop. *)
    challenge t ~kind:"ack" ~seq:seg.ack
  else receive_valid t ~notify seg ~at

and receive_valid t ~notify (seg : Segment.t) ~at =
  (* Metadata first so estimates are fresh for any controller that runs
     from the readable callback. *)
  let w = seg.e2e in
  if w != E2e.Exchange.none then begin
    if E2e.Exchange.has_share w then E2e.Estimator.ingest_wire t.estim ~at:(now t) w;
    if E2e.Exchange.has_hint w then
      (* Keep a (baseline, latest) pair: the first share anchors the
         window so consumers can estimate over the whole connection (or
         re-anchor themselves from a snapshot they saved). *)
      match t.hints_in with
      | Some h ->
        h.last_time <- w.hint_time;
        h.last_total <- w.hint_total;
        h.last_integral <- w.hint_integral
      | None ->
        t.hints_in <-
          Some
            { first_time = w.hint_time; first_total = w.hint_total;
              first_integral = w.hint_integral; last_time = w.hint_time;
              last_total = w.hint_total; last_integral = w.hint_integral }
  end;
  process_ack t seg ~at;
  let len = seg.Segment.payload_len in
  if len > 0 || seg.fin then process_payload t seg ~at;
  (* An ack may have freed Nagle-, window-, cwnd-held data or a
     pending FIN. *)
  if seg.ack > 0 || seg.window > 0 then try_transmit t;
  (* the readable callback also signals EOF *)
  if notify && (len > 0 || t.cold.peer_fin) then t.readable_cb ()

let receive_segment t seg = receive_one t ~notify:true seg

(* A coalesced (GRO) delivery: the application is woken once, after the
   whole batch has been appended — one epoll event per delivery. *)
let receive_batch t segs =
  let had_payload =
    List.fold_left
      (fun acc seg ->
        receive_one t ~notify:false seg;
        acc || seg.Segment.payload_len > 0 || seg.Segment.fin)
      false segs
  in
  if had_payload then t.readable_cb ()

(* Settle the accounting for [len] bytes the application just read. *)
let note_read t len =
  if len > 0 then begin
    let units = drain_units t unread ~bytes:len in
    if units > 0 then E2e.Estimator.track_unread t.estim ~at:(now t) (-units);
    (* Window-update ack when a pinched advertised window reopens, so a
       blocked sender resumes.  The receiver half of silly-window
       avoidance (RFC 1122 4.2.3.3): only announce an opening worth at
       least 2 MSS, and only when the last advertisement was small
       enough (< 2 MSS) that the sender could actually have run out of
       window — a wide-buffer flow whose window merely breathes never
       emits extra acks here.  Without the 2-MSS edge a sender that
       filled an exactly-one-MSS window parks until the delayed-ack
       timer fires: the lone segment stays below the delack pending
       threshold, so the window update rides a 40 ms timer and the
       whole pipeline stalls in lockstep.  [last_advertised] is
       refreshed by the update ack itself, so each reopening announces
       exactly once; the window compared is the one the peer will
       actually see ([wire_window]), so scaling quantization cannot
       fake an opening.  This single ack is also the classic
       zero-window deadlock: if it is lost, only the sender's persist
       timer can revive the connection. *)
    let wnd = wire_window t in
    if t.last_advertised < 2 * t.cfg.mss && wnd - t.last_advertised >= 2 * t.cfg.mss
    then send_pure_ack t
  end

let recv_into t dst n =
  let len = Bytebuf.transfer t.recvbuf ~dst n in
  note_read t len;
  len

let recv t n =
  let data = Bytebuf.read t.recvbuf n in
  note_read t (String.length data);
  data

let recv_available t = Bytebuf.length t.recvbuf

let on_readable t cb = t.readable_cb <- cb
let set_transmit t f = t.transmit <- f
let set_cork_signal t f = (cold t).cork_signal <- f

let nagle_enabled t = t.nagle_enabled
let nagle_toggles t = t.nagle_toggles

let set_nagle_enabled t v =
  if t.nagle_enabled <> v then begin
    if tracing t then event t (Sim.Trace.Nagle_toggle { enabled = v });
    t.nagle_enabled <- v;
    t.nagle_toggles <- t.nagle_toggles + 1
  end

let set_nagle_min_send t v = t.nagle_min_send <- Option.value v ~default:(-1)

(* {2 Teardown API} *)

let close t =
  match t.conn_state with
  | Established ->
    t.conn_state <- Fin_wait_1;
    (cold t).fin_pending <- true;
    try_transmit t
  | Close_wait ->
    t.conn_state <- Last_ack;
    (cold t).fin_pending <- true;
    try_transmit t
  | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack | Time_wait | Closed ->
    (* closing twice is a no-op *)
    ()

(* Hard reset: emit a RST at [snd_nxt] and drop to [Closed].  The peer
   validates it per RFC 5961 — since our [seq] equals its [rcv_nxt]
   whenever the streams are quiescent, a genuine abort is honoured on
   first contact, while an attacker guessing inside the window only
   triggers a challenge. *)
let abort t =
  match t.conn_state with
  | Closed -> ()
  | _ ->
    put_on_wire t ~rst:true ~seq:t.snd_nxt ~payload:Slice.empty ~rest:[] ~len:0 ~push:false
      ~msg_ends:0;
    cancel_rto t;
    cancel_persist t;
    t.conn_state <- Closed

let state t = t.conn_state
let state_string t = state_to_string t.conn_state

let eof t = t.cold.peer_fin && Bytebuf.is_empty t.recvbuf

let estimator t = t.estim
let rtt t = t.rtt

let trace t = t.trace

let set_trace t tr =
  t.trace <- Some tr;
  E2e.Estimator.set_trace t.estim tr ~id:t.label;
  match t.delack with
  | Some d -> Delayed_ack.set_trace d tr ~id:t.label
  | None -> ()
let cwnd t = t.cwnd
let ssthresh t = t.ssthresh

let set_hint_tracker t tracker = t.hint_tracker <- Some tracker

let remote_hint_window t =
  Option.map
    (fun w ->
      ( { E2e.Queue_state.time = int_of_float w.first_time;
          total = int_of_float w.first_total; integral = w.first_integral },
        { E2e.Queue_state.time = int_of_float w.last_time;
          total = int_of_float w.last_total; integral = w.last_integral } ))
    t.hints_in

let request_exchange t = t.exchange_requested <- true

let counters t =
  let c = t.cold in
  {
    segs_out = t.segs_out;
    pure_acks_out = t.pure_acks_out;
    (* the FIN takes a sequence number and carries no byte *)
    bytes_out = (t.snd_nxt - if c.fin_sent_seq < 0 then 0 else 1);
    segs_in = t.segs_in;
    bytes_in = (t.rcv_nxt - if c.peer_fin then 1 else 0);
    sends = t.sends;
    nagle_holds = t.nagle_holds;
    cork_holds = c.cork_holds;
    retransmits = c.retransmits;
    rto_fires = c.rto_fires;
    fast_retransmits = c.fast_retransmits;
    sack_retransmits = c.sack_retransmits;
    probes_sent = c.probes_sent;
    challenges_sent = c.challenges_sent;
  }

let acks_by_timer t =
  match t.delack with Some d -> Delayed_ack.acks_forced_by_timer d | None -> 0

let unacked_bytes t = in_flight t
let unsent_bytes t = Bytebuf.length t.sndbuf
