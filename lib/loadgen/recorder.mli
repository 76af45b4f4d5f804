(** Per-request latency recording with warmup exclusion. *)

type t

val create : warmup_until:Sim.Time.t -> unit -> t
(** Samples completed at or before [warmup_until] are discarded. *)

val record : t -> at:Sim.Time.t -> latency:Sim.Time.span -> unit

val count : t -> int
val mean_us : t -> float
val p50_us : t -> float
val p99_us : t -> float
val max_us : t -> float

val under_slo_fraction : t -> slo_us:float -> float
(** Fraction of recorded requests completing within the SLO. *)
