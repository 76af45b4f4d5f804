(** Application hints (paper §3.3).

    For workloads where neither bytes nor send-calls correspond to
    application messages, the client maintains a userspace queue state
    of in-flight requests via a two-function API — [create n] when
    issuing requests and [complete n] when their responses arrive — and
    passes the state to the stack (in the real design, through [send]'s
    ancillary data).  Applied to this single logical queue, Little's law
    yields the application-perceived end-to-end latency and throughput
    directly, and the server needs no queue monitoring of its own. *)

type t

val tracker : at:Sim.Time.t -> t
(** Fresh in-flight request tracker. *)

val create : t -> at:Sim.Time.t -> int -> unit
(** [create t ~at n]: the application issued [n] requests. *)

val complete : t -> at:Sim.Time.t -> int -> unit
(** [complete t ~at n]: responses for [n] requests arrived.
    @raise Invalid_argument if more requests complete than were
    created. *)

val in_flight : t -> int

val share : t -> at:Sim.Time.t -> Queue_state.share
(** The 3-tuple handed to the stack / shared with the server. *)

val share_into : t -> at:Sim.Time.t -> float array -> int -> unit
(** [share_into t ~at dst i] writes {!share}'s time, total and
    integral into [dst.(i)], [dst.(i + 1)] and [dst.(i + 2)]: what the
    stack puts on the wire, with nothing allocated. *)

val avgs :
  prev:Queue_state.share -> cur:Queue_state.share -> Queue_state.avgs option
(** End-to-end performance between two shares: [latency_ns] is the
    average request-to-response time, [throughput] the completed
    requests per second. *)
