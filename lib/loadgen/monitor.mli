(** Trace-reading monitors behind [e2ebench inspect], [explain] and
    [report].  Each is made by [create], fed one {!Sim.Trace.record} at
    a time in file order by [feed], then read out; {!Observe.slo_fold}
    has the same shape.  {!fold_runs} reads a file into them. *)

val fold_runs :
  string ->
  make:(string -> 'a) ->
  feed:('a -> Sim.Trace.record -> unit) ->
  ((string * 'a) list * int, string) result
(** Read the trace file (JSONL or binary) once, feeding each record to
    its run's monitor, made by [make] from the run label ([""] in
    single-run files) on the run's first record.  Returns the runs in
    first-appearance order and the number of records of event kinds
    newer than this reader, which are skipped.  [Error] on an
    unreadable or malformed file, or one with no records. *)

(** The span group: complete spans, estimator residuals and audits of
    one set of records (a run, a tenant or a shard). *)
module Spans : sig
  type t

  val create : unit -> t
  val feed : t -> Sim.Trace.record -> unit

  val events : t -> int
  val incomplete : t -> int

  val requests : t -> int
  (** [Request_done] records fed. *)

  val spans : t -> Sim.Span.span list
  (** Complete spans, in completion order. *)

  val e2e_us : t -> float -> float
  (** Nearest-rank [q]-quantile of the spans' end-to-end latencies;
      0.0 without spans. *)

  val residual_pairs : t -> E2e.Residual.pair list
  (** One pair per estimate with completions in its window
      [(at - window, at]], in estimate order; the truth is their mean
      latency, summed oldest first.  Completions are searched in file
      order, which is time order in every trace the simulator writes. *)

  val residual : t -> E2e.Residual.summary option

  val audits : t -> Sim.Trace.record list
  (** [Audit_window] records. *)
end

(** What [e2ebench inspect] prints about one run. *)
module Run : sig
  type t

  val create : limit:int -> t
  (** Keeps the first [limit] records as the timeline. *)

  val feed : t -> Sim.Trace.record -> unit

  val range : t -> Sim.Time.t * Sim.Time.t
  (** Earliest and latest record time. *)

  val conns : t -> (string * (string * int) list) list
  (** Per emitter id (["-"] for the empty id), its record count per
      event tag; ids and tags in first-appearance order. *)

  val timeline : t -> Sim.Trace.record list

  val all : t -> Spans.t
  (** The whole run's span group. *)

  val tenants : t -> (string * Spans.t) list
  (** One span group per tenant tag of the ids (["bare/c0"] is tenant
      ["bare"]), in first-appearance order; empty for untagged runs. *)

  val shards : t -> (int * Spans.t) list
  (** One span group per shard suffix of the ids (["bare/c0@s3"] is
      shard 3), in shard order; empty for unsharded runs. *)
end

(** The control plane's decision chains: each control group's
    [Decision_made] records and the outcomes of their tenures. *)
module Decisions : sig
  type t

  val create : unit -> t
  val feed : t -> Sim.Trace.record -> unit

  (** The realized outcome of a decision's tenure. *)
  type tenure =
    | Open  (** no outcome record: the run ended during the tenure *)
    | Idle  (** the tenure saw no completions *)
    | Done of { mean_us : float; p99_us : float; n : int }

  type flip = {
    made : Sim.Trace.record;  (** the [Decision_made] record *)
    decision : int;
    outcome : tenure;  (** this decision's tenure *)
    previous : tenure;  (** decision [decision - 1]'s tenure *)
  }
  (** A decision whose action differs from the mode in force. *)

  type group = { id : string; decisions : int; flips : flip list }

  val groups : t -> group list
  (** Control groups (the decisions' ids) in first-appearance order,
      with their flips in decision order. *)

  type verdict = { improved : bool; by_us : float; pct : float }

  val verdict : flip -> verdict option
  (** Whether the flip's tenure lowered the mean latency of the one
      before it, by how much and by what signed percentage of it;
      [None] unless both tenures saw completions. *)
end
