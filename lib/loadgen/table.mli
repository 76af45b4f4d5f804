(** A find-or-create table that remembers first-appearance order: the
    per-id state of {!Observe}'s SLO fold and settling tracker, and of
    {!Monitor}'s trace readers. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t

val find_opt : ('k, 'v) t -> 'k -> 'v option

val find_or_add : ('k, 'v) t -> 'k -> ('k -> 'v) -> 'v
(** The key's value, made from the key on its first appearance. *)

val to_list : ('k, 'v) t -> ('k * 'v) list
(** In first-appearance order. *)
