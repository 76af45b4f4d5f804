(** Chaos harness: cells that break the network or move the load, each
    run as one {!Fleet.run} and judged by {!Invariants.check}.

    {e Wire} cells come from a loss × reorder × blackout grid over a
    single-run {!Runner.config}: bursty loss calibrated to the cell's
    long-run rate, bounded-displacement reordering, and a blackout
    starting a quarter into the measured window (an eighth in for
    zero-window cells, whose persist-paced recovery needs more drain
    room).  Blackout cells owe a toggler freeze, and a thaw by run end
    when the blackout is the only fault; zero-window cells without
    random loss owe the stall bound.

    {e Load} cells stress re-convergence instead of the wire: a
    flash-crowd cell drives a 10x square-wave rate envelope, a
    churn-storm cell mass-connects six extra connections mid-run and
    mass-disconnects them again.  Both owe bounded estimate
    re-convergence after every judged edge; storms also owe churn
    (connections opened {e and} drained/closed) and mode
    re-convergence within 25 ms.  With [inherit_prior = false] freshly
    spawned per-connection togglers re-explore from scratch and blow
    the storm's mode bound: the ablation that shows the check can
    fail.

    Cells are independent seeded simulations, so grids parallelize
    across domains with bit-identical verdicts. *)

type cell = {
  label : string;
  config : Fleet.config;
  owed : Invariants.owed;  (** beyond what every run owes *)
}

val grid :
  ?zero_windows:bool list ->
  base:Runner.config ->
  losses:float list ->
  reorders:float list ->
  blackouts_ms:float list ->
  unit ->
  cell list
(** Wire cells: the cross product, in row-major order; [zero_windows]
    defaults to [[false]].  Each is [base] with the cell's fault plan
    on both directions and congestion control forced on for lossy
    cells (retransmission needs it).  Zero-window cells squeeze the
    receive buffer to 4 MSS, slow the server's read loop (1 ms
    {!Kv.Server.config.wake_delay}) and cut the rate to a fortieth, so
    advertised windows genuinely close and stay closed for most of
    each window-fill cycle — the regime where a lost window-update ack
    deadlocks a stack without persist probing. *)

type load = Flash_crowd | Churn_storm

val load_cell : ?inherit_prior:bool -> load -> cell
(** One 8-connection per-connection-dynamic tenant, 20 ms warmup +
    160 ms measured, observed.  The estimate bound is 60 ms after an
    envelope edge (a 10x peak melts the server for 20 ms, and the
    bound budgets for the backlog drain) and 25 ms after a churn edge.
    [inherit_prior] is {!Fleet.config.cold_start_inherit}, default
    [true]. *)

val churn_grid : unit -> cell list
(** The default flash-crowd and churn-storm cells. *)

type verdict = { cell : cell; result : Fleet.result; failures : string list }

val ok : verdict -> bool
(** No failed invariant. *)

val run_cell : cell -> verdict

val run_grid : ?domains:int -> cell list -> verdict list
(** Every cell, fanned out over [domains] (default 1). *)
