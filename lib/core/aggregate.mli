(** Cross-connection aggregation (§3.2).

    "The above provides per-connection estimates, which can be averaged
    if a batching policy simultaneously affects multiple connections."
    Latencies are combined as a throughput-weighted mean (a message
    picked at random across connections experiences the average);
    throughputs add. *)

type input = { latency_ns : float option; throughput : float }

type t = {
  latency_ns : float option;  (** weighted mean over contributing flows *)
  throughput : float;  (** sum *)
  flows : int;  (** inputs that contributed a latency estimate *)
}

val combine : input list -> t
(** {!add_last} over the inputs, in order. *)

(** {1 Folding without lists}

    A float-only accumulator, so that adding to it overwrites floats in
    place and allocates nothing ({!Estimator.fold} writes an
    estimator's estimate straight into it).  Counts are held as floats
    (exact below 2{^53}), and an absent latency is [nan]: an estimate's
    latencies are never [nan] themselves. *)

type acc = {
  mutable last_latency_ns : float;  (** the estimate added last *)
  mutable last_local_ns : float;  (** its local vantage point *)
  mutable last_remote_ns : float;  (** its remote vantage point *)
  mutable last_throughput : float;
  mutable last_window_ns : float;
  mutable estimates : float;  (** estimates added *)
  mutable flows : float;  (** those that contributed a latency *)
  mutable weighted : float;  (** sum of latency x throughput over [flows] *)
  mutable weight : float;  (** sum of throughput over [flows] *)
  mutable throughput : float;  (** sum of throughput over [estimates] *)
}

val acc : unit -> acc
(** An empty accumulator. *)

val reset : acc -> unit
(** Empty [acc] again. *)

val add_last : acc -> unit
(** Add the [last_*] estimate to the sums.  [combine] weighs each input
    the same way, in the same float operations. *)

val copy_last : src:acc -> acc -> unit
(** Make [src]'s last estimate [acc]'s, to add it to a second
    accumulator. *)

val result : acc -> t

val known : float -> float option
(** [None] for [nan], an accumulator's absent latency. *)

(** {1 Fairness across flows/tenants}

    Multi-tenant fleets report how evenly the shared server treats
    tenants; both helpers take a list of non-negative per-tenant
    figures (e.g. goodput fractions, achieved/offered). *)

val max_min_ratio : float list -> float option
(** [max/min] of the inputs; 1.0 is perfectly fair.  [None] on an empty
    list or when the minimum is not positive (a starved tenant makes
    the ratio meaningless — report the starvation itself instead). *)

val jain : float list -> float option
(** Jain's fairness index [(Σx)² / (n·Σx²)], in [(0, 1]]; 1.0 is
    perfectly fair, [1/n] is maximally unfair.  [None] on an empty
    list or when every input is zero. *)
