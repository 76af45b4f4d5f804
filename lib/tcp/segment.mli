(** TCP segments as exchanged inside the simulator.

    Byte positions are full-width integers for simulator clarity; the
    wire codec in {!Options} (and {!Seq32}) provides the genuine 32-bit
    representation exercised by tests. *)

type t = {
  seq : int;  (** stream offset of the first payload byte *)
  ack : int;  (** cumulative ack: next byte expected from the peer *)
  payload : Slice.t;
      (** the payload's first view, into the sender's application
          write; see {!Slice} *)
  payload_rest : Slice.t list;
      (** the payload's further views, in order: [[]] unless the
          segment spans the end of one write slice.  Nearly every
          segment is one view, so it costs no list cell. *)
  payload_len : int;  (** the payload's length, over all its views *)
  window : int;  (** advertised receive window, bytes *)
  push : bool;  (** PSH: carries the final byte of an app send() *)
  msg_ends : int;
      (** how many application send() buffers end inside this segment —
          the receive-side message-boundary signal for syscall units *)
  e2e : E2e.Exchange.wire;
      (** the metadata riding this segment, {!E2e.Exchange.none} for
          none: the 36-byte E2E option (§5) when it has a share, and a
          cooperative application's in-flight-request queue state
          (§3.3), forwarded by the sender's stack, when it has a hint *)
  ts_val : int;
      (** RFC 7323 timestamp: the sender's clock in microseconds; -1
          when absent *)
  ts_ecr : int;
      (** echo of the most recent peer timestamp; -1 when absent *)
  sack : (int * int) list;
      (** RFC 2018 selective-ack blocks: [left, right) byte ranges the
          receiver holds above the cumulative ack.  Empty on every
          segment of a loss-free flow, so loss-free runs pay no wire or
          allocation cost for SACK support. *)
  rst : bool;  (** connection reset (validated per RFC 5961 §3) *)
  syn : bool;
      (** a SYN arriving on an established connection (challenged per
          RFC 5961 §4; the simulator has no handshake, so SYN appears
          only as an attack/fault vector) *)
  fin : bool;  (** sender has no more data; consumes one sequence number *)
}

val make :
  ?payload:string ->
  ?push:bool ->
  ?msg_ends:int ->
  ?e2e:E2e.Exchange.wire ->
  ?ts_val:int ->
  ?ts_ecr:int ->
  ?sack:(int * int) list ->
  ?rst:bool ->
  ?syn:bool ->
  ?fin:bool ->
  seq:int ->
  ack:int ->
  window:int ->
  unit ->
  t

val len : t -> int
(** Payload length. *)

val sub_payload : t -> int -> int -> Slice.t * Slice.t list
(** [sub_payload t off len] is the first view and further views of
    payload bytes [off, off + len): views of the same strings, no
    copy.  Raises [Invalid_argument] when out of range. *)

val is_pure_ack : t -> bool
(** No payload and no RST/SYN/FIN flag — possibly still carrying SACK
    blocks or a window update. *)

val seq_len : t -> int
(** Sequence space consumed: payload length plus one for FIN. *)

val header_bytes : int
(** Fixed per-segment overhead used by the link's serialization model:
    Ethernet (14) + preamble/IFG (24 equivalent) + IPv4 (20) + TCP (20)
    = 78 bytes. *)

val wire_bytes : t -> int
(** [header_bytes + len + option bytes] — the E2E option (when [e2e]
    has a share) and SACK blocks both count toward option bytes. *)
