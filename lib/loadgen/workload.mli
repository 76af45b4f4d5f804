(** Workload specifications — the paper's Redis benchmarks.

    The evaluation's main workload sets 16 KiB values to 16 B keys
    (SET-only, Figure 4a); the heterogeneous variant mixes in 5% GETs
    whose 16 KiB responses break byte-unit estimation (Figure 4b). *)

type t = {
  set_ratio : float;  (** fraction of SETs; the rest are GETs *)
  key_size : int;
  value_size : int;
  n_keys : int;
  zipf_theta : float;  (** key popularity skew; 0 = uniform *)
}

val paper_set_only : t
(** Figure 4a: 100% SET, 16 B keys, 16 KiB values. *)

val paper_mixed : t
(** Figure 4b: 95% SET / 5% GET. *)

val small_requests : t
(** Sub-MSS requests (64 B values): the regime where Nagle coalesces
    whole requests and the Figure-1 batch economics are starkest. *)

val validate : t -> (t, string) result

val next_command : t -> rng:Sim.Rng.t -> Kv.Command.t
(** Draw one request.  Values are materialized at [value_size]; keys
    are fixed-width and drawn Zipf([zipf_theta]) over [n_keys]. *)

val value_of : t -> string
(** The one [value_size]-byte value every SET of this shape carries;
    built once per domain and shared. *)

val prepopulate : t -> Kv.Store.t -> now:Sim.Time.t -> unit
(** Insert every key so GETs always hit, as a benchmark loader would. *)

val request_bytes : t -> [ `Set | `Get ] -> int
(** Wire size of an encoded request of the given kind. *)

val response_bytes : t -> [ `Set | `Get ] -> int
(** Wire size of the corresponding response (GET assumed hit). *)

val describe : t -> string
