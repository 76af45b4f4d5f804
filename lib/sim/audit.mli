(** Online Little's-law audit.

    For each named queue this module measures, independently:

    - [L] — time-averaged occupancy, from an exact time-weighted
      occupancy integral in integer unit·ns;
    - [λ] — arrival rate, from an arrival counter;
    - [W] — mean wait, by pairing departures with their arrival times
      through a FIFO of outstanding units (valid for the FIFO queues
      the paper models: sent-unacked bytes, received-unread bytes,
      delayed-ACK segments).

    Little's law says L = λW in steady state; over a finite window the
    identity holds up to boundary terms from units in flight across
    the window edges.  [report] returns the relative error
    |L − λW| / max(L, λW) per queue, an executable cross-check of the
    queue accounting behind the paper's Eq. (1) estimator.

    All bookkeeping is integer arithmetic driven by the caller's
    timestamps — no engine interaction, no floating point until
    [report] — so audited runs are bit-identical to unaudited ones and
    across sequential vs domain-parallel execution. *)

type t
(** A registry of audited queues. *)

type queue

val create : unit -> t

val queue : t -> string -> queue
(** Get or create the queue named [string].  Names are unique per [t];
    repeated calls return the same queue. *)

val occupancy : queue -> int
(** Current occupancy in units. *)

val arrival : queue -> at:Time.t -> int -> unit
(** [arrival q ~at n] records [n ≥ 0] units entering the queue at
    [at].  Raises [Invalid_argument] on negative [n].  Timestamps must
    be non-decreasing per queue. *)

val departure : queue -> at:Time.t -> int -> unit
(** [departure q ~at n] records [n ≥ 0] units leaving, matching them
    against the oldest outstanding arrivals (FIFO) to accumulate wait.
    Departing more units than are outstanding contributes zero wait
    for the excess rather than raising. *)

val track : queue -> at:Time.t -> int -> unit
(** [track q ~at n] dispatches on sign: [arrival] for [n > 0],
    [departure] for [n < 0], no-op for [0].  Mirrors the signed-delta
    convention of the estimator's queue trackers. *)

val reset_window : t -> at:Time.t -> unit
(** Start a fresh measurement window at [at] for every queue.
    Occupancy and outstanding units carry over (they are physically
    still queued); the integral, arrival/departure counters and wait
    accumulator reset.  Call at warmup end. *)

type report = {
  queue : string;
  window_us : float;  (** window length *)
  l_avg : float;  (** time-averaged occupancy L *)
  lambda_per_s : float;  (** arrival rate λ, units/second *)
  w_us : float;  (** measured mean wait W *)
  arrivals : int;
  departures : int;
  rel_err : float;
      (** |L − λW| / max(L, λW); [0.] when both terms are ~0 or the
          window is empty. *)
}

val report : t -> at:Time.t -> report list
(** Close the books at [at] and report every queue, in registration
    order.  Does not reset the window. *)

val pp_report : Format.formatter -> report -> unit
