(** Generic Receive Offload / NAPI coalescing.

    The receive path does not hand every wire packet to the stack
    individually: consecutive full-MSS segments of a flow are merged
    and traverse the stack as one unit, up to a 64 KiB cap.  A sub-MSS
    segment (or a pure ack) can join a batch but terminates it, and a
    quiet gap flushes whatever is pending.

    This is the mechanism that makes sender-side batching pay off at
    the receiver: with Nagle on, a loaded sender emits an unbroken run
    of full segments that coalesce across request boundaries, so
    per-delivery costs (softirq stack traversal, socket wakeups) are
    amortized over several requests; with Nagle off, each request's
    short tail packet flushes the batch, pinning deliveries at one or
    more per request. *)

type config = {
  enabled : bool;
  max_bytes : int;  (** merge cap, default 64 KiB *)
  flush_timeout : Sim.Time.span;
      (** idle gap that ends a NAPI poll batch — the NIC's interrupt
          coalescing window (rx-usecs); default 12 µs *)
  mss : int;  (** segments of at least this payload can extend a batch *)
}

val default_config : mss:int -> config

type t

val create :
  Sim.Engine.t -> config -> rx:'r -> deliver:('r -> Segment.t list -> unit) -> t
(** Each flushed batch, oldest segment first, goes to [deliver rx].
    With [enabled = false] every segment is delivered as its own batch
    immediately.  A receive path passes its receiver as [rx] and a
    top-level [deliver], so the GRO holds no closure of its own. *)

val submit : t -> Segment.t -> unit

val flush : t -> unit
(** Force out any held segments. *)

val pending : t -> int

val batches : t -> int
(** Deliveries so far. *)

val segments : t -> int

val merge_ratio : t -> float
(** Segments per delivery — the amortization factor actually achieved. *)
