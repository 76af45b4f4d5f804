(** Streaming statistics.

    Latency summaries for the load generator and accuracy checks for the
    estimator.  All aggregates are single-pass and O(1) per sample
    except the histogram, which is O(buckets) memory. *)

(** {1 Scalar summary (Welford)} *)

module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Sample variance; 0 with fewer than two samples. *)

  val stddev : t -> float
  val min : t -> float
  (** [infinity] when empty. *)

  val max : t -> float
  (** [neg_infinity] when empty. *)

  val total : t -> float
  val merge : t -> t -> t
  (** Combine two summaries as if all samples were added to one. *)
end

(** {1 Log-bucketed histogram with percentile queries}

    HDR-style: buckets grow geometrically so relative error is bounded
    (~[2^-sub_bits]) across the full value range. *)

module Histogram : sig
  type t

  val create : ?sub_bits:int -> unit -> t
  (** [sub_bits] (default 5) sets precision: each power-of-two range is
      split into [2^sub_bits] linear buckets. *)

  val add : t -> float -> unit
  (** Record one non-negative sample; negative samples clamp to 0. *)

  val count : t -> int
  val mean : t -> float

  val percentile : t -> float -> float
  (** [percentile h p] for [p] in [0, 100]; 0 when empty.  Returns a
      bucket upper bound, so the result over-approximates slightly. *)

  val median : t -> float
  val merge : t -> t -> t
end

(** {1 Streaming quantiles (P-squared)}

    The Jain–Chlamtac P² algorithm estimates a single quantile online
    in O(1) space — how a kernel would track tail latency without
    storing samples.  The paper defers tail metrics to future work;
    this is the building block that future work needs. *)

module P2 : sig
  type t

  val create : q:float -> t
  (** Track the [q]-quantile, [q] strictly between 0 and 1.
      @raise Invalid_argument otherwise. *)

  val add : t -> float -> unit
  val count : t -> int

  val value : t -> float option
  (** [None] until five samples have been seen; exact for the first
      five, the P² estimate afterwards. *)
end

(** {1 Time-weighted average}

    The average value of a step function of time, e.g. instantaneous
    queue length; the ground truth against which Little's-law estimates
    are validated. *)

module Time_avg : sig
  type t

  val create : at:Time.t -> value:float -> t
  val update : t -> at:Time.t -> value:float -> unit
  (** Record that the tracked quantity changed to [value] at [at].
      Out-of-order updates raise [Invalid_argument]. *)

  val average : t -> upto:Time.t -> float
  (** Time-weighted mean over [create-time, upto]. *)
end
