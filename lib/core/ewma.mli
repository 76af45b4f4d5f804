(** Exponentially weighted moving averages (paper §5, "Toggling
    Granularity": EWMAs smooth noisy estimates in dynamic
    environments and can be computed online with low overhead). *)

type t

val create : alpha:float -> t
(** Classic fixed-weight EWMA, [alpha] in (0, 1]: each update moves the
    average a fraction [alpha] toward the sample.
    @raise Invalid_argument for [alpha] outside (0, 1]. *)

val update : t -> float -> float
(** Feed a sample; returns the new average. *)

val value : t -> float option
(** [None] before the first sample. *)

val value_or : t -> default:float -> float
val reset : t -> unit

(** Irregularly sampled EWMA: the effective weight of a sample depends
    on how much time elapsed since the previous one
    ([alpha_eff = 1 - exp (-dt / tau)]), so estimates arriving at
    varying intervals — e.g. on-demand metadata exchanges — are
    smoothed consistently. *)
module Irregular : sig
  type t

  val create : tau:Sim.Time.span -> t
  (** [tau] is the smoothing time constant.
      @raise Invalid_argument when [tau <= 0]. *)

  val update : t -> at:Sim.Time.t -> float -> float
  val value : t -> float option
end
