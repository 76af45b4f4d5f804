(** Batching objectives (paper §2 "Goal" and §5 "Dynamic Toggling").

    Throughput and latency can conflict, so toggling follows a system-
    or user-defined policy — e.g. "maximize throughput as long as
    latency remains below a specified threshold". *)

type t =
  | Prefer_latency  (** lower average latency wins *)
  | Prefer_throughput  (** higher throughput wins *)
  | Throughput_under_slo of { slo_ns : float }
      (** maximize throughput among modes meeting the SLO (ties within
          10% broken by latency); when no mode meets it, lower latency
          wins *)

type outcome = { latency_ns : float; throughput : float }

val better : t -> outcome -> outcome -> bool
(** [better p a b] is [true] when [a] is strictly preferable to [b]. *)

val default_slo_ns : float
(** 500 µs — the SLO the paper's evaluation uses. *)

val to_string : t -> string
val of_string : string -> (t, string) result
(** Accepts ["latency"], ["throughput"], ["slo"] (default 500 µs) or
    ["slo:<microseconds>"], a positive time under {!Sim.Directive}'s
    number rule. *)
