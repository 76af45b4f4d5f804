(** ε-greedy dynamic batching toggle (paper §5 "Dynamic Toggling").

    The effect of flipping batching is unknown until tried — a classic
    exploration/exploitation tradeoff — so the controller occasionally
    runs the other mode ("a light method like ε-greedy will suffice").
    Per-mode latency and throughput observations are EWMA-smoothed
    (§5 "Toggling Granularity") and compared under a {!Policy.t}. *)

type mode = Batch_on | Batch_off

val mode_to_string : mode -> string
val flip : mode -> mode

type t

val create :
  ?epsilon:float ->
  ?ewma_alpha:float ->
  ?min_observations:int ->
  policy:Policy.t ->
  rng:Sim.Rng.t ->
  initial:mode ->
  unit ->
  t
(** [epsilon] (default 0.05) is the exploration probability per
    decision; [ewma_alpha] (default 0.3) smooths per-mode scores;
    [min_observations] (default 3) is how many samples a mode needs
    before its smoothed outcome is trusted (unexplored or stale modes
    are explored first).
    @raise Invalid_argument for [epsilon] outside [0, 1] or a
    non-positive [min_observations]. *)

val mode : t -> mode
(** The mode currently in force. *)

val observe : t -> mode:mode -> Policy.outcome -> unit
(** Feed one measurement window's outcome for the mode that was active
    during it. *)

val observations : t -> mode -> int
val smoothed : t -> mode -> Policy.outcome option

val seed_arm : t -> mode:mode -> Policy.outcome -> unit
(** Cold-start inheritance: pre-load an arm with a sibling group's
    smoothed outcome and mark it as sufficiently observed, so a group
    spawned mid-run (connection churn) exploits the fleet's experience
    instead of re-exploring both arms from scratch.  The EWMA still
    adapts as the group's own samples arrive. *)

val decide : t -> mode
(** Pick the mode for the next window: explore with probability ε (or
    when the other arm is unexplored), otherwise exploit the better
    smoothed outcome.  Updates {!mode}.  While a mode is {!force}d,
    returns it unconditionally without consuming the rng. *)

type reason = Explore | Exploit | Undersampled | Forced

val reason_to_string : reason -> string

type explanation = {
  before : mode;  (** mode in force when the decision was taken *)
  chosen : mode;
  on_us : float option;
      (** smoothed Batch_on latency (µs) at decision time *)
  off_us : float option;
  why : reason;
}

val decide_explained : t -> explanation
(** Exactly {!decide}, additionally reporting the decision's inputs
    and which branch chose the mode.  Consumes the rng identically to
    [decide] (which is implemented on top of it), so swapping one for
    the other cannot perturb a seeded run. *)

val force : t -> mode option -> unit
(** Pin {!decide} to a fixed mode ([Some m]) or release it ([None]).
    Used for graceful degradation: when estimates go stale the
    controller falls back to the static default instead of exploring
    on garbage input.  Forcing consumes no randomness and leaves both
    arms untouched, so a released toggler resumes exactly where it
    stopped. *)

val forced : t -> mode option
