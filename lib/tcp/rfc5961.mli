(** RFC 5961 blind-attack mitigations as pure decisions over
    {!Seq32} serial arithmetic.

    All three checks are invariant under a uniform 2{^32} shift of
    every sequence-number input (verified by a QCheck property), so the
    socket can feed them truncated full-width stream positions. *)

type verdict = Accept | Challenge | Discard

val check_rst : rcv_nxt:Seq32.t -> rcv_wnd:int -> seq:Seq32.t -> verdict
(** §3.2: [Accept] only when [seq = rcv_nxt]; [Challenge] when [seq]
    falls elsewhere inside [rcv_nxt, rcv_nxt + rcv_wnd); [Discard]
    outside the window.  A zero window accepts only the exact match.
    @raise Invalid_argument on a negative [rcv_wnd]. *)

val check_syn : unit -> verdict
(** §4.2: a SYN on a synchronized connection is always challenged. *)

val ack_acceptable :
  snd_una:Seq32.t -> snd_nxt:Seq32.t -> max_wnd:int -> ack:Seq32.t -> bool
(** §5.2: [snd_una - max_wnd <= ack <= snd_nxt] under serial
    arithmetic, where [max_wnd] is the largest window the peer has
    advertised.  Unacceptable ACKs are challenged and dropped.
    @raise Invalid_argument on a negative [max_wnd]. *)
