(** A serially shared CPU resource.

    Models one pinned execution context (the paper pins the application
    thread and the IRQ/softirq context to dedicated cores): work items
    queue FIFO, each occupying the CPU for its stated cost.  Accumulated
    busy time gives the utilization curves of the paper's Figure 2. *)

type t

val create : Engine.t -> t

val run : t -> cost:Time.span -> (unit -> unit) -> unit
(** [run t ~cost k] enqueues a work item taking [cost] of CPU time; [k]
    fires when the item completes (after all previously queued work).
    @raise Invalid_argument on negative cost. *)

val call : t -> cost:Time.span -> ('a -> 'b -> unit) -> 'a -> 'b -> unit
(** [call t ~cost fn a b] is {!run} with the call [fn a b] as the
    continuation: with a top-level [fn] it allocates nothing (see
    {!Engine.call_at}). *)

val busy_ns : t -> Time.span
(** Total CPU time consumed so far (including queued-but-unfinished
    work's share only once it runs). *)

val utilization : t -> over:Time.span -> float
(** [busy_ns / over]. *)
