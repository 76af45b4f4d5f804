(** Nagle's algorithm (RFC 896), runtime-toggleable.

    The sender may transmit a segment when it is full-sized, when
    nothing is in flight, or when Nagle is disabled (TCP_NODELAY);
    otherwise sub-MSS data waits for an acknowledgment.  An optional
    [min_send] threshold below the MSS generalizes the rule for the
    AIMD batch-limit controller: segments at least that large may go
    out even with data in flight.  The socket keeps the state (see
    {!Socket.set_nagle_enabled} and {!Socket.set_nagle_min_send}); this
    is the decision. *)

val should_send : enabled:bool -> min_send:int -> mss:int -> chunk:int -> in_flight:int -> bool
(** May a [chunk]-byte segment be transmitted now, given [in_flight]
    unacknowledged bytes?  A negative [min_send] means no threshold
    (pure RFC 896). *)
