(** The invariant oracle: one check over a {!Fleet.result}, for any
    run.  Every run owes accounting closure per tenant and per shard
    ([issued = completed_total + outstanding_end]: no request silently
    lost), liveness (every tenant completed a request) and, when
    observed, a bounded Little's-law audit.
    The rest is owed only by the runs that declare it in {!owed}. *)

type owed = {
  measured_progress : bool;
      (** every tenant completed a request inside the measured window,
          not only at some point of the run *)
  stall_free : bool;
      (** at most half of each tenant's issued requests still
          outstanding at run end (a zero-window deadlock strands
          everything issued after the stall) *)
  froze : bool;
      (** every dynamic group under a fault plan froze at least once
          (a blackout trips the degradation machinery) *)
  thawed : bool;  (** ... and no such group is frozen at run end *)
  churned : bool;  (** churn opened and drained-and-closed a connection *)
  settle_us : float option;
      (** the run is observed, has at least one judged
          {!Observe.settle_report}, and every judged segment's estimate
          re-converges within this bound *)
  mode_settle_us : float option;
      (** every judged segment's mode series re-converges within this
          bound *)
}

val base : owed
(** Nothing beyond what every run owes. *)

val audit_bound : float
(** Worst tolerated Little's-law relative error (0.15). *)

val check : owed -> Fleet.result -> string list
(** One line per broken invariant; empty when all hold. *)
