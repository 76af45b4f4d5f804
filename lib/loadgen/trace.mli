(** Trace-driven workloads.

    Records a request schedule — timestamp plus command — in a plain
    text format, so benchmark runs can replay captured or synthesized
    traces instead of drawing from an analytic arrival process.  This
    is the substitution path for the production traces a general-
    purpose deployment would use.

    Line format (one request per line; a line starting with [#] is a
    comment, and a [#] elsewhere is part of the line, since a key may
    hold one):
    {v <microseconds> SET <key> <value_bytes>
       <microseconds> GET <key> v}
    Timestamps must be non-decreasing and fit the simulated clock; a
    value size lies in [[1, Kv.Resp.max_bulk_length]].  Both formats
    are read by {!Sim.Directive} ([Records] syntax); read a file with
    [Sim.Directive.file of_string] or [Sim.Directive.file gaps_of_string]. *)

type entry = { at : Sim.Time.t; cmd : Kv.Command.t }

val to_string : entry list -> string
val of_string : string -> (entry list, string) result
(** Checks timestamp monotonicity; errors carry the line number. *)

val save_file : string -> entry list -> (unit, string) result

val synthesize :
  workload:Workload.t ->
  rate_rps:float ->
  duration:Sim.Time.span ->
  rng:Sim.Rng.t ->
  entry list
(** Generate the trace an open-loop Poisson run of the given workload
    would issue — useful for reproducible fixtures and for editing a
    baseline trace into adversarial shapes. *)

val duration : entry list -> Sim.Time.span
val count : entry list -> int

(** {1 Inter-arrival gap traces}

    A second, simpler format feeding {!Arrival.replay}: one recorded
    inter-arrival gap per line, in microseconds (fractions allowed),
    [#] comment lines and blank lines skipped.  Gaps are returned in
    nanoseconds. *)

val gaps_of_string : string -> (int array, string) result
(** Errors carry the 1-based line number. *)

val gaps_to_string : int array -> string
