(** Per-link-direction fault injection state.

    One injector owns one {!Plan.side} plus a dedicated {!Sim.Rng}
    stream and the Gilbert–Elliott channel state.  {!Tcp.Link} asks it
    for a {!decision} per packet; {!Tcp.Conn} asks {!corrupt_share}
    per exchange-carrying wire segment.  The per-packet draw order is
    fixed (loss, reorder, duplication — each only when configured), so
    seeded runs replay bit-identically. *)

type action =
  | Deliver
  | Drop of string  (** drop with this trace reason (["loss"], ["blackout"]) *)

type decision = {
  action : action;
  extra_delay_us : float;
      (** > 0: hold the packet back this long after its normal arrival
          instant, letting later packets overtake it (reordering) *)
  duplicate : bool;  (** deliver the packet a second time *)
}

type t

val create : side:Plan.side -> rng:Sim.Rng.t -> t

val decide : t -> now_us:float -> decision
(** Decide the fate of one packet entering the link at [now_us]. *)

val corrupt_share : t -> E2e.Exchange.wire -> E2e.Exchange.wire option
(** Corruption targeted at the 36-byte exchange option of a segment's
    metadata: [None] when corruption does not fire; otherwise the
    metadata the receiver gets, with the hint untouched and the share
    either dropped (the mangled bytes no longer decode) or replaced by
    the garbage triple they decode to (the estimator's ingest clamps
    must reject it).  Implemented as encode → random byte flips →
    decode, so the corruption model matches the wire codec. *)

(** {1 Counters} *)

val packets : t -> int
val drops : t -> int
val reorders : t -> int
val duplicates : t -> int
val corruptions : t -> int
