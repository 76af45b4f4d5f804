(** Declarative fault plans for the simulated network.

    A plan describes, per link direction, bursty (Gilbert–Elliott)
    loss, bounded-displacement reordering, duplication, corruption of
    the 36-byte exchange option, timed blackouts, and mid-run
    bandwidth/propagation-delay steps.  Plans are pure data: all
    randomness lives in {!Injector}, driven by {!Sim.Rng}, so a seeded
    run replays bit-identically (and identically across [--domains]).

    The textual grammar ([--fault-plan FILE]) is one directive per
    line; [#] starts a comment:

    {v
    loss dir=both prob=0.02              # Bernoulli shorthand
    loss dir=c2s p_gb=0.05 p_bg=0.4 good=0.001 bad=0.3
    reorder dir=both prob=0.05 disp=3 quantum_us=20
    dup dir=s2c prob=0.01
    corrupt dir=both prob=0.02
    blackout dir=both from_ms=150 until_ms=170
    rate at_ms=200 gbps=0.5
    delay at_ms=200 us=100
    v}

    [dir] defaults to [both]; time keys accept [_us] or [_ms].  Lines,
    [key=value] pairs and numbers are read by {!Sim.Directive}: an
    unknown or repeated key is an error, every number must be finite,
    and times must fit the simulated clock. *)

type dir = C2s | S2c | Both

type gilbert = {
  p_gb : float;  (** P(Good → Bad) per packet *)
  p_bg : float;  (** P(Bad → Good) per packet *)
  loss_good : float;  (** drop probability while Good *)
  loss_bad : float;  (** drop probability while Bad *)
}
(** Two-state Gilbert–Elliott bursty-loss channel, stepped per packet. *)

val bernoulli : prob:float -> gilbert
(** Degenerate (stateless) channel: independent loss with [prob].
    @raise Invalid_argument for probabilities outside [0, 1). *)

type reorder = {
  reorder_prob : float;  (** chance a packet is displaced *)
  max_displacement : int;  (** bound on how far it slips back *)
  quantum_us : float;  (** extra delay per displacement slot *)
}

type blackout = { from_us : float; until_us : float }
(** Every packet sent inside the window is dropped (reason
    ["blackout"]); retransmission timers carry traffic across it. *)

type step = { at_us : float; gbit_per_s : float option; delay_us : float option }
(** A mid-run link reconfiguration: at [at_us], set the bandwidth
    and/or the propagation delay (absolute new values). *)

type side = {
  loss : gilbert option;
  reorder : reorder option;
  duplicate : float;  (** per-packet duplication probability *)
  corrupt : float;  (** per-share corruption probability *)
  blackouts : blackout list;
}
(** The faults applied to one link direction. *)

val empty_side : side

type t = { c2s : side; s2c : side; steps : step list }

val empty : t
val is_empty : t -> bool
val side_is_empty : side -> bool

val side : t -> dir -> side
(** [C2s] or [S2c] only.  @raise Invalid_argument on [Both]. *)

val of_string : string -> (t, string) result
(** Parse the directive grammar; errors carry the 1-based line.  Read
    a file with [Sim.Directive.file of_string]. *)

val to_string : t -> string
(** Render back to the directive grammar (parses to an equal plan). *)

val pp : Format.formatter -> t -> unit
