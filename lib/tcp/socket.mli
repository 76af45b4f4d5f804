(** A simulated TCP socket endpoint.

    Implements the transmit-side batching machinery the paper studies —
    MSS segmentation, Nagle's algorithm (runtime-toggleable), auto-
    corking — the receive side with delayed acknowledgments and flow
    control, and the paper's instrumentation: every change to the three
    §3.2 queues (sent-unacked, received-unread, delayed-ack) is
    reported to a per-connection {!E2e.Estimator.t} in the configured
    message unit, and queue-state snapshots are exchanged with the peer
    through a TCP option on outgoing segments.

    Reliability: cumulative acks with retransmission (an RFC 6298 RTO
    with exponential backoff, plus triple-duplicate-ack fast
    retransmit), SACK-based scoreboard recovery (RFC 2018/6675 in
    spirit; on by default, the RTO sweep remains the backstop),
    out-of-order reassembly at the receiver, zero-window persist
    probing (RFC 9293 §3.8.6.1), RFC 5961 in-window RST/SYN/ACK
    validation, and optional Reno-style congestion control
    ([cc_enabled]; off by default, as the paper's benchmarks run on an
    uncongested lossless LAN — see {!Link.set_loss} to inject drops).
    Sequence numbers are full-width integers (see {!Seq32} for the
    wire form). *)

type wscale = [ `Exact | `Fixed of int | `Auto ]
(** How the advertised window is carried.  [`Exact] keeps the
    simulator's idealized full-width windows (the historical
    behaviour, and the default — loss-free runs stay bit-identical).
    [`Fixed s] and [`Auto] opt into wire-faithful RFC 7323 carriage:
    the window is quantized through a 16-bit field shifted left by
    [s], so it rounds down to a multiple of [2^s] and saturates at
    [65535 lsl s] ([`Fixed 0] is an unscaled classic TCP window,
    capped at 64 KiB).  [`Auto] offers {!Options.wscale_for} of
    [rcv_buf].  Scaling binds only if both sides of a {!Conn} opt in
    (RFC 7323 negotiation); a realist socket facing an idealized peer
    falls back to [`Fixed 0]. *)

type config = {
  mss : int;  (** maximum segment payload, default 1448 *)
  nagle : bool;  (** initial Nagle state *)
  cork : bool;  (** auto-corking: hold sub-MSS data while the NIC
                    transmitter is busy *)
  tso_max : int option;
      (** TCP segmentation offload: hand the transmit path
          super-segments up to this many bytes (split to MSS on the
          wire by {!Conn}); [None] disables TSO *)
  cc_enabled : bool;
      (** Reno-style congestion control: initial window 10 MSS, slow
          start / congestion avoidance, multiplicative decrease on loss
          signals *)
  delack_timeout : Sim.Time.span;  (** delayed-ack timer, default 40 ms *)
  delack_max_pending : int;  (** ack at latest every N data segments *)
  rcv_buf : int;  (** receive buffer / advertised window bound *)
  unit_mode : E2e.Units.t;  (** queue accounting unit (§3.3) *)
  exchange : E2e.Exchange.policy;  (** when to attach the E2E option *)
  sack : bool;
      (** selective acknowledgments: the receiver reports out-of-order
          ranges on its acks and the sender retransmits only the holes.
          On by default — SACK blocks only exist under loss, so
          loss-free runs are unaffected *)
  wscale : wscale;  (** window carriage mode, default [`Exact] *)
  persist : bool;
      (** zero-window persist timer: probe a peer advertising window 0
          with a one-garbage-byte segment below the window at
          exponentially backed-off intervals, so a lost window-update
          ack cannot deadlock the connection.  On by default; the timer
          only arms when the peer window is closed with nothing in
          flight, and each episode's probe budget is bounded so runs
          against a never-reading peer still quiesce *)
}

val default_config : config
(** MSS 1448, Nagle on, cork off, TSO off, congestion control off,
    40 ms/2-segment delayed acks, 256 KiB receive buffer, byte units,
    periodic 100 µs exchange, SACK on, exact windows, persist on. *)

type t

val create : ?label:string -> Sim.Engine.t -> config -> t

val label : t -> string

(** {1 Wiring (done by {!Conn})} *)

val set_transmit : t -> (Segment.t -> unit) -> unit
(** Install the path that puts a finished segment on the wire. *)

val set_cork_signal : t -> (unit -> Sim.Time.t option) -> unit
(** Auto-corking probe: [Some t] when the transmitter is busy until
    [t], [None] when idle. *)

val receive_segment : t -> Segment.t -> unit
(** Deliver a segment from the wire (after link + IRQ delays). *)

val receive_batch : t -> Segment.t list -> unit
(** Deliver a GRO-coalesced run of segments, firing the readable
    callback once at the end — one epoll event per delivery. *)

(** {1 Application interface} *)

val send : t -> string -> unit
(** Queue one application write (a [send(2)] call); triggers
    transmission subject to Nagle/cork/window rules. *)

val send_slices : t -> Slice.t list -> unit
(** {!send} for a write made of several slices (a [writev(2)] call):
    one message boundary, and the slices are queued as they are, so a
    segment's payload is views of the caller's strings. *)

val recv : t -> int -> string
(** Read up to [n] bytes of in-order received data. *)

val recv_into : t -> Bytebuf.t -> int -> int
(** [recv_into t dst n] moves up to [n] bytes of in-order received data
    to the back of [dst] without copying them; returns the count.  The
    window-update and queue accounting is {!recv}'s. *)

val recv_available : t -> int

val on_readable : t -> (unit -> unit) -> unit
(** Callback fired whenever new payload is delivered. *)

val kick : t -> unit
(** Re-attempt transmission (cork release, controller changes). *)

(** {1 Teardown}

    Connections are created established (like a socketpair) and torn
    down with the RFC 793 FIN handshake. *)

type conn_state =
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait
  | Closed

val close : t -> unit
(** Half-close: queued data still drains, then a FIN goes out (it
    consumes one sequence number and is retransmitted like data).
    Subsequent {!send} calls raise; receiving continues until the peer
    closes too.  Idempotent. *)

val state : t -> conn_state
val state_string : t -> string

val abort : t -> unit
(** Hard reset: send a RST at [snd_nxt] and drop straight to [Closed],
    cancelling every timer.  The peer validates the RST per RFC 5961
    (§3.2): it is accepted only if its sequence number is exactly the
    peer's [rcv_nxt], challenged if merely in-window, and silently
    discarded otherwise.  Idempotent once closed. *)

val negotiate_window_scaling : t -> t -> unit
(** RFC 7323 handshake for a freshly created pair (called by {!Conn}
    before any traffic): scaling binds only if both endpoints offered a
    shift ([`Fixed]/[`Auto]); a realist side facing an [`Exact] peer
    falls back to shift 0 (classic 64 KiB-capped windows). *)

val window_shift : t -> int option
(** The negotiated send-direction window shift; [None] means exact
    full-width windows. *)

val eof : t -> bool
(** The peer closed and every delivered byte has been read. *)

(** {1 Batching controls} *)

val nagle_enabled : t -> bool
(** Whether Nagle's algorithm (see {!Nagle.should_send}) holds small
    segments now. *)

val set_nagle_enabled : t -> bool -> unit
(** Flip at runtime — the paper's dynamic on/off toggling. *)

val nagle_toggles : t -> int
(** How many times {!set_nagle_enabled} changed the state — controller
    stability metric. *)

val set_nagle_min_send : t -> int option -> unit
(** [Some n]: treat segments of at least [n] bytes as releasable even
    while data is in flight (AIMD-adjusted batch limit).  [None]
    restores pure RFC 896 behaviour. *)

(** {1 End-to-end estimation} *)

val estimator : t -> E2e.Estimator.t
(** The estimator fed by this socket's queue instrumentation. *)

val cwnd : t -> int
(** Current congestion window in bytes (meaningful with
    [cc_enabled]). *)

val ssthresh : t -> int

val rtt : t -> Rtt.t
(** The RFC 6298 estimator fed by echoed segment timestamps — the
    baseline signal the paper shows is insufficient for end-to-end
    latency (it misses application read delays and is inflated by
    delayed acks). *)

val set_hint_tracker : t -> E2e.Hints.t -> unit
(** §3.3 cooperative-application mode: attach the share of the
    application's in-flight-request tracker to outgoing segments
    instead of relying on stack queues alone. *)

val remote_hint_window :
  t -> (E2e.Queue_state.share * E2e.Queue_state.share) option
(** The first and the most recent hint shares received from the peer —
    the server-side view of client-perceived performance over the
    connection.  For sub-windows, save the latest share as a baseline
    and difference against a later one. *)

val request_exchange : t -> unit
(** Ask for an E2E option on the next transmission (on-demand policy). *)

(** {1 Counters} *)

type counters = {
  segs_out : int;  (** data-carrying segments sent (fresh, not retx) *)
  pure_acks_out : int;
  bytes_out : int;  (** payload bytes sent *)
  segs_in : int;
  bytes_in : int;
  sends : int;  (** application send() calls *)
  nagle_holds : int;  (** transmission opportunities deferred by Nagle *)
  cork_holds : int;
  retransmits : int;  (** segments re-sent (timer or fast retransmit) *)
  rto_fires : int;
  fast_retransmits : int;
  sack_retransmits : int;
      (** hole retransmissions driven by the SACK scoreboard (a subset
          of [retransmits]) *)
  probes_sent : int;  (** zero-window persist probes *)
  challenges_sent : int;  (** RFC 5961 challenge ACKs *)
}

val counters : t -> counters

val has_cold_state : t -> bool
(** Whether the socket has built its record of the state a clean
    connection never writes: loss recovery, persist probing, teardown,
    auto-cork and the rare-event counters.  A socket shares one
    read-only default record until its first write to any of them. *)

val set_trace : t -> Sim.Trace.t -> unit
(** Attach a trace ring: the socket emits typed segment/Nagle/cork/FIN
    events labelled with its [label], and propagates the trace to its
    estimator (share/estimate events) and delayed-ACK state
    (fire/cancel events).  Emission only happens while the trace is
    enabled, and costs one branch when it is not. *)

val trace : t -> Sim.Trace.t option
(** The attached trace ring, if any — lets the application layer emit
    request-lifecycle events labelled with this socket's [label]. *)

val acks_by_timer : t -> int
(** Acks this endpoint sent because the delayed-ack timer expired. *)

val unacked_bytes : t -> int
(** Bytes sent and not yet acknowledged. *)

val unsent_bytes : t -> int
(** Bytes queued but not yet segmented onto the wire. *)
