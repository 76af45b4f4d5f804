(** An established connection between two simulated hosts.

    Wires two {!Socket}s through two one-way {!Link}s, charging
    per-segment transmit costs and GRO-batched receive costs to each
    host's dedicated IRQ CPU (the paper pins network-stack processing
    to its own core).  The receive path runs through {!Gro}: the stack
    traversal cost is paid per coalesced delivery, which is where
    sender-side batching translates into receiver capacity. *)

type host_params = {
  socket : Socket.config;
  tx_cost : Sim.Time.span;  (** per-segment transmit-path CPU cost *)
  rx_seg_cost : Sim.Time.span;  (** per-wire-segment receive cost
                                    (DMA/merge work) *)
  rx_batch_cost : Sim.Time.span;
      (** per-GRO-delivery cost (softirq TCP/IP traversal, socket
          wakeup) *)
  gro : Gro.config;
}

val default_host : host_params
(** Default socket config; 300 ns tx, 150 ns per segment, 8 µs per
    data delivery (softirq TCP traversal + socket wakeup + switch to
    the app context), GRO enabled at 64 KiB / 12 µs. *)

type link_params = {
  prop_delay : Sim.Time.span;
  gbit_per_s : float;
}

val default_link : link_params
(** 10 µs propagation at 100 Gbit/s — the paper's testbed NICs. *)

type t

val create :
  Sim.Engine.t ->
  ?a:host_params ->
  ?b:host_params ->
  ?link_ab:link_params ->
  ?link_ba:link_params ->
  ?cpu_a:Sim.Cpu.t ->
  ?cpu_b:Sim.Cpu.t ->
  ?label_a:string ->
  ?label_b:string ->
  unit ->
  t
(** [cpu_a]/[cpu_b] let several connections share one IRQ core per
    host, as multiple flows through one NIC queue would.
    [label_a]/[label_b] (default ["A"]/["B"]) name the sockets in trace
    records. *)

val sock_a : t -> Socket.t
(** By convention the client side. *)

val sock_b : t -> Socket.t
(** By convention the server side. *)

val gro_a : t -> Gro.t
(** The GRO stage in front of socket A (traffic B→A). *)

val gro_b : t -> Gro.t

val link_ab : t -> Link.t
val link_ba : t -> Link.t

val total_packets : t -> int
(** Packets carried in both directions. *)
