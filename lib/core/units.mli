(** Message units used to bridge the semantic gap (paper §3.3).

    The stack sees bytes and packets; applications think in requests and
    responses.  The estimator can count queue items in any of four
    units, trading kernel-only operation against accuracy on
    heterogeneous workloads. *)

type t =
  | Bytes  (** The paper's prototype: accurate only when requests and
               responses have similar sizes (§3.4). *)
  | Packets  (** MSS-sized segments; "similarly limited" per §3.4. *)
  | Syscalls  (** Buffers handed to [send] approximate messages
                  (§3.3, citing calibrated-interrupts experience). *)
  | Hinted  (** The application calls [create]/[complete] (§3.3);
                exact by construction. *)

val all : t list
val to_string : t -> string
val of_string : string -> (t, string) result
val equal : t -> t -> bool
