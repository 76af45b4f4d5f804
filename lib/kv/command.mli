(** Redis command parsing, encoding, and execution. *)

type t =
  | Ping
  | Echo of string
  | Set of { key : string; value : string; ttl : Sim.Time.span option }
  | Get of string
  | Del of string list
  | Exists of string list
  | Append of { key : string; value : string }
  | Strlen of string
  | Incr of string
  | Decr of string
  | Incrby of { key : string; delta : int }
  | Mset of (string * string) list
  | Mget of string list
  | Setnx of { key : string; value : string }
  | Getset of { key : string; value : string }
  | Expire of { key : string; seconds : int }
  | Ttl of string
  | Dbsize
  | Flushall
  | Keys of string

val to_resp : t -> Resp.value
(** The command as a RESP array of bulk strings, exactly as redis-cli
    would send it. *)

val encode : t -> string
(** Client-side encoding: [Resp.encode (to_resp t)], written straight
    into one exact-size buffer without building the {!Resp.value}. *)

val encode_slices : t -> Tcp.Slice.t list
(** The request as it is sent: views whose concatenation is {!encode}'s
    string.  An argument of at least {!Resp.shared_bulk_min} bytes is a
    view of the caller's string ({!Resp.encode_slices}); a request
    without one is a single view of {!encode}'s buffer. *)

val of_resp : Resp.value -> (t, string) result
(** Server-side decoding.  Command names are case-insensitive; a
    known command decodes without copying its name or arguments. *)

val execute : Store.t -> now:Sim.Time.t -> t -> Resp.value
(** Run against the store, producing the RESP reply. *)

val name : t -> string

val request_bytes : t -> int
(** Wire size of the encoded request. *)
