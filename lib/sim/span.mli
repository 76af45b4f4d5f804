(** Per-request causal spans with exact latency decomposition.

    [build] folds a trace (live ring contents or a loaded JSONL file)
    into one span per completed request.  A span is nine milestones
    t0..t8; the eight phases between consecutive milestones partition
    [issue, complete] exactly — durations telescope, so they sum to the
    request's end-to-end latency by construction, with no gaps or
    overlaps on the critical path.

    Request identity is positional: requests on a connection are FIFO
    at every stage, so the j-th [Req_issued] on ["cN"] corresponds to
    the j-th [Srv_start]/[Srv_reply] on its peer ["sN"] and the j-th
    [Req_complete] back on ["cN"].  Wire milestones come from stream
    byte extents ([Req_issued]/[Srv_reply] carry [off]/[len]) matched
    against [Segment_sent] (first transmission of each byte) and
    [Segment_received] (cumulative in-order [fresh] bytes). *)

type phase =
  | Client_send  (** t0→t1: issue until the app's write reaches the socket *)
  | Send_hold
      (** t1→t2: client socket buffering — Nagle/cork/window holds —
          until the last command byte is first transmitted *)
  | Network_in
      (** t2→t3: serialization, propagation, loss recovery and receive
          IRQ work until the last command byte arrives in order *)
  | Server_queue  (** t3→t4: receive queue until the server dequeues it *)
  | Server_compute
      (** t4→t5: batch service time, including server-CPU contention *)
  | Reply_hold  (** t5→t6: server socket buffering for the reply *)
  | Network_out  (** t6→t7: reply wire time until received in order *)
  | Client_recv  (** t7→t8: client receive queue + parse until complete *)

val all_phases : phase list
(** Critical-path order. *)

val phase_name : phase -> string

type span = {
  conn : string;  (** client socket label, e.g. ["c0"] *)
  req : int;  (** 0-based FIFO index on that connection *)
  milestones : Time.t array;  (** length 9: t0..t8, non-decreasing *)
}

val issue : span -> Time.t  (** t0 *)

val complete : span -> Time.t  (** t8 *)

val total : span -> Time.span
(** [complete - issue]; equals the sum of all phase durations. *)

val latency_us : span -> float
(** [Time.to_us (total s)] — bit-identical to the latency a
    [Request_done] record derives from the same timestamps. *)

val duration : span -> phase -> Time.span
val phases : span -> (phase * Time.span) list

type built = {
  spans : span list;  (** by connection, then request index *)
  incomplete : int;
      (** requests seen in the trace that could not be fully resolved:
          still in flight at capture time, or with milestones lost to
          ring wraparound *)
}

val build : ?peer:(string -> string option) -> Trace.record list -> built
(** [peer] maps a client id to its server-side id; the default maps
    ["cN"] to ["sN"] (the {!Loadgen.Runner} convention) and the
    tenant-tagged ["<tenant>/cN"] to ["<tenant>/sN"] (the fleet
    convention).  Records must be in emission order (as
    [Trace.records] and JSONL files are). *)

(** {1 Streaming reconstruction}

    The same span reconstruction as {!build}, as an incremental fold:
    feed records in emission order and each request resolves (or is
    written off) at its [Req_complete], retiring its state and any
    wire edges no later request can reference.  Memory is proportional
    to in-flight requests, not trace length, so multi-gigabyte
    file-backed traces fold in constant space.  On a trace with no
    ring-wraparound loss the resolved spans and the incomplete count
    are identical to [build]'s (spans arrive in completion order
    rather than sorted by connection). *)
module Streaming : sig
  type t

  val create : ?peer:(string -> string option) -> unit -> t
  (** Same [peer] convention as {!build}. *)

  val feed : t -> Trace.record -> span option
  (** Feed one record, in emission order; returns the span resolved by
      a [Req_complete] record, if any. *)

  val resolved : t -> int
  (** Spans returned so far. *)

  val pending : t -> int
  (** Client-side requests currently tracked (in flight). *)

  val incomplete : t -> int
  (** Requests retired unresolvable plus those still pending on client
      connections; once the whole trace has been fed this equals the
      batch builder's [incomplete]. *)

  val live_state : t -> int
  (** Footprint probe: retained edge-window entries plus pending
      request records across all connections. *)
end

type row = {
  phase : phase;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  mean_us : float;
  max_us : float;
}

val rank : 'a array -> float -> 'a
(** [rank sorted q] is the nearest-rank [q]-quantile ([q] in [0,1]) of
    the non-empty ascending array [sorted]: its
    [ceil (q * n)]-th smallest element, clamped to the array. *)

val breakdown : span list -> row list
(** Per-phase nearest-rank percentiles over the given spans, in
    critical-path order; empty input gives an empty list. *)

val pp : Format.formatter -> span -> unit
(** Per-request critical-path view: one line per phase with its
    duration and cumulative end offset. *)
