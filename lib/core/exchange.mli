(** Peer metadata exchange (paper §3.2 and §5).

    Each party shares its three local queue states — unacked, unread,
    ackdelay — as three 3-tuples of 4-byte counters: 36 bytes per
    exchange.  The wire format truncates each counter to 32 bits
    (microsecond time, item count, item-microsecond integral); receivers
    reconstruct full-width values by unwrapping against the previously
    received payload, exactly as TCP timestamps are handled. *)

type triple = {
  unacked : Queue_state.share;
  unread : Queue_state.share;
  ackdelay : Queue_state.share;
}
(** One side's three queue snapshots, all taken at the same instant. *)

(** {1 On a segment}

    What rides a segment in the simulator: one side's snapshot and the
    hint of a cooperative application (§3.3), as one record of floats.
    OCaml stores a float-only record's fields flat, so a share costs
    this one block and reading or checking it boxes nothing.  Times are
    nanoseconds and totals item counts, held exactly (below 2{^53}). *)

type wire = {
  time : float;  (** snapshot time of the three queues; nan: no share *)
  unacked_total : float;
  unread_total : float;
  ackdelay_total : float;
  unacked_integral : float;
  unread_integral : float;
  ackdelay_integral : float;
  hint_time : float;
      (** the hint's snapshot time: [time] as sent, kept apart because
          a garbled share's time is not the hint's; nan: no hint *)
  hint_total : float;
  hint_integral : float;
}

val none : wire
(** The shared "no metadata" record: neither a share nor a hint. *)

val has_share : wire -> bool
val has_hint : wire -> bool

val of_triple : triple -> wire
(** The triple's totals and integrals, at its unacked share's time
    (the caller checks that the three times agree); no hint. *)

val to_triple : wire -> triple
(** The three shares, each at [time]: [to_triple (of_triple tr) = tr]
    for a triple whose times agree. *)

val with_share : wire -> triple -> wire
(** [w]'s hint with the triple's share in place of [w]'s. *)

val without_share : wire -> wire
(** [w]'s hint alone ({!none} when [w] has none): what is left of a
    segment's metadata when its share no longer decodes. *)

(** {1 Wire codec} *)

val wire_size : int
(** 36: three queues times three 4-byte counters. *)

val encode : triple -> string
(** Serialize to the 36-byte option payload (little-endian u32s,
    truncating each counter modulo 2{^32}). *)

val decode : string -> (triple, string) result
(** Decode a payload in isolation.  Counters are the raw (possibly
    wrapped) 32-bit values; use {!unwrap} to reconstruct monotone
    counters across successive payloads.

    Corrupted payloads surface as [Error], never an exception and
    never a silently-poisoned triple: besides the length check, the
    three shares' snapshot times must agree (they are taken at one
    instant), which random 36-byte garbage survives with probability
    2{^-64}. *)

val unwrap : prev:triple -> cur:triple -> triple
(** Reconstruct full-width monotone counters for [cur] given the
    previously unwrapped [prev], assuming each counter advanced by less
    than 2{^32} between the two payloads. *)

(** {1 Exchange scheduling (§5 "Metadata Exchange")} *)

type policy =
  | Every_segment  (** attach the option to every outgoing segment *)
  | Periodic of Sim.Time.span  (** at most one exchange per interval *)
  | On_demand  (** only when an exchange was requested since the last send *)

val due : policy -> last_sent:Sim.Time.t -> requested:bool -> now:Sim.Time.t -> bool
(** Should the segment being built at [now] carry the option?
    [last_sent] is when the last one was attached ([-1] for never) and
    [requested] whether an exchange was asked for since ([On_demand]).
    The caller keeps both and updates them when this returns [true]. *)
