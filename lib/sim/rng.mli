(** Deterministic pseudo-random numbers for workload generation.

    SplitMix64 core: fast, well-distributed, and trivially reproducible
    from a single [int] seed, which keeps every simulation replayable. *)

type t

val create : seed:int -> t

val split : t -> t
(** Derive an independent stream (e.g. one per connection) without
    perturbing the parent. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform in [0, 1). *)

val int : t -> bound:int -> int
(** Uniform in [0, bound).  @raise Invalid_argument if [bound <= 0]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean (Poisson
    inter-arrivals).  @raise Invalid_argument if [mean <= 0]. *)

val normal : t -> mu:float -> sigma:float -> float
(** Gaussian via Box–Muller. *)

val pareto : t -> scale:float -> shape:float -> float
(** Pareto with minimum [scale] and tail index [shape]. *)

val zipf : t -> n:int -> theta:float -> int
(** Zipf-like rank in [0, n) with skew [theta] (0 = uniform), using the
    standard rejection-free inverse-CDF approximation over the
    generalized harmonic number. *)
