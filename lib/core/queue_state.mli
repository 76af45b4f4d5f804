(** Little's-law queue accounting (paper §3.1, Algorithms 1 and 2).

    A queue's average delay is [D = Q / lambda] where [Q] is average
    occupancy and [lambda] the departure rate.  Both derive from a
    4-tuple state [(time, size, total, integral)] updated by {!track}
    whenever items enter or leave, exactly as in Algorithm 1:

    - [size]     — items currently in the queue;
    - [total]    — cumulative items that have {e left} the queue;
    - [integral] — time integral of [size] (item·ns);
    - [time]     — instant of the last update.

    {!get_avgs} (Algorithm 2) subtracts two 3-tuple snapshots to obtain
    window averages: [Q = d_integral/d_time], [lambda = d_total/d_time],
    [latency = Q/lambda = d_integral/d_total]. *)

type t

val create : at:Sim.Time.t -> t
(** Empty queue state initialized at the given instant. *)

val track : t -> at:Sim.Time.t -> int -> unit
(** [track t ~at nitems] records that [nitems] entered (positive) or
    left (negative) the queue at time [at] (Algorithm 1).  Updates must
    not go backwards in time and must not drive [size] negative.
    @raise Invalid_argument on either violation. *)

val size : t -> int
(** Current queue occupancy in items. *)

val total : t -> int
(** Cumulative departures. *)

(** {1 Snapshots and window averages} *)

type share = { time : Sim.Time.t; total : int; integral : float }
(** The 3-tuple a peer shares (§3.1): [size] is deliberately omitted
    because Algorithm 2 never uses it. *)

val snapshot : t -> at:Sim.Time.t -> share
(** Non-destructive snapshot with the integral advanced to [at]
    (accounts for the current occupancy persisting since the last
    {!track} call).  [at] must not precede the last update. *)

type avgs = {
  q_avg : float;  (** average occupancy over the window (items) *)
  throughput : float;  (** departures per second *)
  latency_ns : float option;  (** [None] when nothing departed *)
}

val get_avgs : prev:share -> cur:share -> avgs option
(** Algorithm 2 over the window between two snapshots; [None] when the
    window is empty or inverted. *)

(** {1 Flat storage}

    The same state and steps over [slots] consecutive floats of a
    caller's array, starting at an offset: for callers that keep several
    queues in one block.  {!track} and {!snapshot} are these at offset 0
    of a [t]'s own storage. *)

val slots : int
(** Floats one queue state occupies. *)

val init_in : float array -> int -> at:Sim.Time.t -> unit
(** [init_in a o ~at] writes an empty state initialized at [at] into
    [a.(o)] .. [a.(o + slots - 1)]. *)

val track_in : float array -> int -> at:Sim.Time.t -> int -> unit
(** {!track} on the state at offset [o]. *)

val snapshot_in : float array -> int -> at:Sim.Time.t -> share
(** {!snapshot} of the state at offset [o]. *)

val size_in : float array -> int -> int
(** {!size} of the state at offset [o]. *)

val total_in : float array -> int -> int
(** {!total} of the state at offset [o]. *)

val integral_into : float array -> int -> at:Sim.Time.t -> float array -> int -> unit
(** [integral_into a o ~at dst i] writes the integral {!snapshot_in}
    would share into [dst.(i)], with the same check.  It allocates
    nothing, where a float returned across modules is boxed. *)
