(** One-way network link.

    FIFO with per-packet serialization at the configured bandwidth plus
    fixed propagation delay — the point where packet-count overheads
    become visible, and the resource auto-corking watches.

    Adverse conditions attach here: a legacy Bernoulli loss knob
    ({!set_loss}) and a full {!Fault.Injector} hook ({!set_fault}) for
    bursty loss, reordering, duplication and blackouts.  With a trace
    attached ({!set_trace}), every injected fault emits a typed event
    ([Segment_dropped] / [Segment_reordered] / [Segment_duplicated] /
    [Share_corrupted]) so faults are visible to span reconstruction and
    [e2ebench inspect]. *)

type t

val create :
  Sim.Engine.t -> prop_delay:Sim.Time.span -> gbit_per_s:float -> t
(** @raise Invalid_argument on negative delay or non-positive rate. *)

val send : t -> seq:int -> wire_bytes:int -> ('a -> 'b -> unit) -> 'a -> 'b -> unit
(** [send t ~seq ~wire_bytes fn a b] ships a packet of [wire_bytes];
    the call [fn a b] (typically the receiver's GRO and the packet)
    happens at the receiver once serialization (behind any queued
    packets) and propagation complete, once per delivered copy.  [seq]
    only labels fault trace events ([-1] for none). *)

val busy : t -> bool
(** Is the transmitter currently serializing (the NIC "tx ring not yet
    reclaimed" condition auto-corking keys on)? *)

val packets : t -> int
val bytes : t -> int
(** Lifetime counters. *)

val tx_busy_ns : t -> Sim.Time.span
(** Cumulative serialization time — link utilization. *)

val set_loss : t -> rng:Sim.Rng.t -> prob:float -> unit
(** Drop each packet independently with the given probability (after
    serialization — the sender still pays the wire time).
    @raise Invalid_argument for probabilities outside [0, 1). *)

val dropped : t -> int

(** {1 Fault injection} *)

val set_fault : t -> Fault.Injector.t -> unit
(** Route every packet through the injector (after the legacy
    {!set_loss} draw, which stays independent).  Dropped packets still
    pay serialization; reordered ones arrive [extra_delay_us] late,
    letting later packets overtake; duplicates are delivered twice. *)

val fault : t -> Fault.Injector.t option

val set_trace : t -> Sim.Trace.t -> id:string -> unit
(** Emit typed fault events into [trace], labelled [id]. *)

val note_share_corrupted : t -> seq:int -> unit
(** Record (and trace) one corrupted exchange option on this link —
    called by {!Conn} where the option payload lives. *)

val corrupted_shares : t -> int

(** {1 Mid-run reconfiguration (fault-plan steps)} *)

val set_gbit_per_s : t -> float -> unit
(** Change the bandwidth; packets already serialized keep their old
    timing.  @raise Invalid_argument on a non-positive rate. *)

val set_prop_delay : t -> Sim.Time.span -> unit
(** Change the propagation delay for subsequent packets.
    @raise Invalid_argument on a negative delay. *)
