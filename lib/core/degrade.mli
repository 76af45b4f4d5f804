(** Graceful-degradation hysteresis for the dynamic toggler.

    When remote shares go stale (loss burst, blackout), estimates stop
    meaning anything and an ε-greedy controller fed garbage can flap.
    This tiny state machine debounces the stale signal: only after
    [freeze_after] consecutive stale ticks does the controller freeze
    (fall back to the static default), and only after [thaw_after]
    consecutive fresh ticks does it resume — so isolated gaps cause no
    mode churn in either direction. *)

type config = {
  freeze_after : int;  (** consecutive stale ticks before freezing *)
  thaw_after : int;  (** consecutive fresh ticks before resuming *)
}

val default_config : config
(** Freeze after 2 stale ticks, thaw after 2 fresh ones. *)

type state = Active | Frozen

type t

val create : ?config:config -> unit -> t
(** @raise Invalid_argument on non-positive hysteresis counts. *)

val step : t -> stale:bool -> state
(** Feed one controller tick's staleness verdict; returns the state
    now in force. *)

val state : t -> state
val freezes : t -> int
val thaws : t -> int
