(** Typed structured tracing.

    A bounded ring of [(time, id, event)] records with a JSONL
    export/import round-trip.  The event taxonomy covers the transport
    and estimator behaviour that the paper's batching decisions hinge
    on: segment lifecycle, Nagle/cork holds and toggles, delayed-ACK
    timers, exchange shares and estimator outputs.

    Overhead when disabled: [event] returns before allocating the
    record, and call sites are expected to guard payload construction
    with [enabled] so the whole emission is branch-only.  [emitf]
    likewise consumes its format arguments without evaluating them. *)

type event =
  | Segment_sent of { seq : int; len : int; push : bool; retx : bool }
  | Segment_received of { seq : int; fresh : int }
      (** [fresh] is the number of not-yet-seen payload bytes. *)
  | Ack_received of { acked : int; una : int }
  | Nagle_hold of { chunk : int; in_flight : int }
  | Nagle_toggle of { enabled : bool }
  | Cork_hold of { chunk : int }
  | Delack_fire of { pending : int }
      (** Delayed-ACK timer expired with [pending] unacked segments. *)
  | Delack_cancel of { pending : int }
      (** Armed delayed-ACK timer disarmed by an outgoing ACK. *)
  | Fin_received of { rcv_nxt : int }
  | Segment_dropped of { seq : int; len : int; reason : string }
      (** The link discarded a packet ([reason]: ["loss"], ["blackout"],
          ...); [len] is its wire size. *)
  | Segment_reordered of { seq : int; delay_us : float }
      (** Fault injection delayed a packet past later traffic. *)
  | Segment_duplicated of { seq : int }
      (** Fault injection delivered a packet twice. *)
  | Segment_challenged of { seq : int; kind : string }
      (** RFC 5961 validation answered a suspicious segment with a
          challenge ACK instead of acting on it ([kind]: ["rst"],
          ["syn"] or ["ack"]; [seq] is the offending sequence or ack
          number). *)
  | Probe_sent of { seq : int; backoff : int }
      (** The persist timer probed a zero-window peer with one garbage
          byte below the window ([seq] = [snd_una - 1]); [backoff] is
          the probe count this episode (the interval doubles up to the
          RTO cap). *)
  | Share_corrupted of { seq : int }
      (** Fault injection mangled the 36-byte exchange option riding the
          segment at [seq]. *)
  | Share_rejected of { reason : string }
      (** The estimator's ingest sanity clamps discarded a share. *)
  | Share_ingested of {
      unacked_total : int;
      unread_total : int;
      ackdelay_total : int;
    }  (** A 36-byte exchange triple arrived from the peer. *)
  | Estimate_computed of {
      latency_us : float option;
      throughput : float;
      window_us : float;
    }
  | Request_done of { latency_us : float }
  | Req_issued of { req : int; off : int; len : int }
      (** Application issued request [req] (0-based, FIFO per
          connection); its command occupies stream bytes
          [\[off, off+len)] of the client-to-server direction. *)
  | Req_sent of { req : int }
      (** The client app's write for [req] reached the socket (the
          send-CPU cost has been paid). *)
  | Req_complete of { req : int }
      (** The client parsed the full reply for [req]. *)
  | Srv_start of { req : int }
      (** The server application dequeued [req] into a batch. *)
  | Srv_reply of { req : int; off : int; len : int }
      (** The server wrote the reply for [req]; it occupies stream
          bytes [\[off, off+len)] of the server-to-client direction. *)
  | Audit_window of {
      queue : string;
      l_avg : float;  (** time-averaged occupancy L over the window *)
      lambda_per_s : float;  (** arrival rate λ, units per second *)
      w_us : float;  (** measured mean wait W, microseconds *)
      rel_err : float;  (** |L − λW| / max(L, λW); Little's-law check *)
    }  (** One Little's-law audit window result (see {!Audit}). *)
  | Message of { tag : string; detail : string }
      (** Escape hatch for ad-hoc string traces ([emit]/[emitf]). *)
  | Decision_made of {
      decision : int;
          (** 0-based sequence number within the emitting control
              group (the record's [id]) — the key [Decision_outcome]
              refers back to. *)
      on_us : float option;
          (** smoothed end-to-end estimate for the Batch_on arm at
              decision time ([None] when unsampled); AIMD groups carry
              their single aggregate estimate here *)
      off_us : float option;
          (** ditto for the Batch_off arm (toggler only) *)
      mode : string;
          (** mode in force when the decision was taken (["on"],
              ["off"] or ["limit=N"]) *)
      action : string;  (** mode/limit the decision chose *)
      reason : string;
          (** why: ["explore"] (ε-draw), ["exploit"], ["undersampled"],
              ["forced"] (degrade freeze) for the toggler;
              ["good"]/["bad"]/["hold"] for AIMD *)
      frozen : bool;  (** degrade freeze in force *)
      stale_us : float;
          (** age of the freshest accepted remote share across the
              group's estimators; [-1] when no share has arrived *)
    }  (** One toggler/AIMD control decision with its inputs. *)
  | Decision_outcome of {
      decision : int;  (** the [Decision_made] this realizes *)
      mean_us : float;  (** mean request latency over the tenure *)
      p99_us : float;  (** p99 request latency over the tenure *)
      n : int;  (** completions observed during the tenure *)
    }
      (** Realized outcome of a decision's tenure, emitted when the
          {e next} decision closes it.  The final decision of a run
          stays open (no outcome). *)
  | Conn_opened of {
      gen : int;  (** per-tenant connection generation counter *)
      inherited : bool;
          (** the estimator/control state was seeded from the group
              prior (cold-start inheritance) rather than starting
              from scratch *)
    }  (** A connection joined the run mid-flight (fleet churn). *)
  | Conn_closed of {
      gen : int;  (** generation from the matching [Conn_opened] *)
      completed : int;  (** requests completed over the connection's life *)
    }
      (** A churned connection finished draining and closed (FIN). *)
  | Lb_assigned of {
      shard : int;  (** backend shard the front load balancer picked *)
      policy : string;
          (** ["round_robin"] / ["consistent_hash"] / ["least_loaded"] *)
    }
      (** The load balancer assigned this connection to a shard
          (sharded fleets only, emitted at connection creation). *)
  | Shard_enqueued of {
      shard : int;
      depth : int;
          (** requests outstanding against the shard after this
              enqueue — the shard dispatch-queue depth *)
    }
      (** A request was dispatched to a backend shard (sharded fleets
          only). *)

type record = { at : Time.t; id : string; event : event }
(** [id] names the emitting connection/socket (e.g. ["c0"]). *)

(** {1 Event schema}

    One table, with one entry per [event] constructor, describes every
    event; [tag], [detail], both JSONL directions and the binary writer
    and reader are interpreters over it.  An entry gives the JSONL
    ["ev"] name, the binary kind code and the constructor's typed
    fields, in binary payload order, which is also the JSONL key order.
    Its [read] copies a constructor's fields into {!slots} and its
    [build] makes the constructor back from them.

    {b Adding a trace event}: add the constructor to [event] and its
    entry at the same position in [schema], with a new kind code (the
    next after the largest) and flag bits 0–5 not used by its other
    fields.  The codecs, [tag], [detail] and the tests' generators all
    follow the table.  A kind past 31 also changes the binary format:
    it needs a new {!Binary.version} and, so that v4 readers can skip
    it, the explicit payload length that version's note asks for. *)

type ty =
  | I64  (** int, 8 bytes *)
  | Num  (** int in a u32 slot: 4 bytes, 8 when the record is wide *)
  | F64
      (** float as its IEEE-754 bits; in JSON a number, or the string
          ["nan"], ["inf"] or ["-inf"] when not finite (read back
          exactly; [null], as older files hold, reads as [nan]) *)
  | Bool of int  (** bool in flag bit [k]; no payload bytes *)
  | Ev_bit of int
      (** bool in flag bit [k]; not a JSON key: when set, the field's
          key replaces the entry's ["ev"] (["tx"] becomes ["retx"]) *)
  | Str  (** string, a u32 reference into the string table *)
  | Fopt of int
      (** float option: flag bit [k] when [Some], then 8 bytes (0.0 for
          [None]); JSON [null] for [None], a [Some] as an [F64] *)

type field = { key : string; ty : ty }
(** [key] is the field's JSON key and its label in [detail]. *)

type slots = { i : int array; f : float array; s : string array }
(** Field [k] of an entry is at index [k] of the array its type uses:
    ints, and bools and option presence as 0/1, in [i]; floats and
    option values in [f]; strings in [s]. *)

type entry = {
  ev : string;  (** JSONL ["ev"] name, and [tag] *)
  kind : int;  (** binary kind code *)
  verbatim : bool;
      (** [Message] only: [tag] and [detail] are the values of its two
          fields, as they are *)
  fields : field array;
  read : slots -> event -> unit;  (** copy the constructor's fields into slots *)
  build : slots -> event;  (** the constructor from slots *)
}

val schema : entry array
(** One entry per [event] constructor, in declaration order. *)

val slots : unit -> slots
(** Fresh slots with room for every entry's fields. *)

type t

val create : ?capacity:int -> unit -> t
(** Ring buffer of at most [capacity] (default 4096) records; older
    records are overwritten. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit
val capacity : t -> int

val emitted : t -> int
(** Total records emitted since creation/[clear], including those the
    ring has since overwritten. *)

val dropped : t -> int
(** Records lost to ring overwrite: [emitted] minus those retained in
    the ring or delivered to a sink. *)

val set_sink : t -> (record -> unit) option -> unit
(** With a sink installed, [event] hands each record to the callback
    instead of storing it in the ring — the streaming path for runs
    whose traces do not fit in memory (e.g. writing straight to a
    binary trace file).  [records]/[iter]/[fold] then only see what
    was stored before the sink was set.  Single-run use only: the
    callback is invoked from whichever domain runs the simulation, so
    do not share a sinked trace across parallel sweep workers. *)

val sunk : t -> int
(** Records delivered to the sink since creation/[clear]. *)

val event : t -> at:Time.t -> id:string -> event -> unit
(** No-op while disabled; the check precedes any allocation.  Callers
    should still guard event-payload construction with [enabled]. *)

val emit : t -> at:Time.t -> tag:string -> detail:string -> unit
(** [Message] sugar with an empty [id].  No-op while disabled. *)

val emitf :
  t -> at:Time.t -> tag:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Formatted [Message] variant; the format arguments are only
    evaluated when tracing is enabled. *)

val iter : t -> (record -> unit) -> unit
(** Oldest first; no intermediate list. *)

val fold : t -> init:'a -> f:('a -> record -> 'a) -> 'a
(** Oldest first; no intermediate list. *)

val records : t -> record list
(** Oldest first. *)

val tenant_of_id : string -> string option
(** Tenant tag of an emitter id: multi-tenant fleet runs label
    connections ["<tenant>/c0"], so ["bare/c0"] maps to [Some "bare"]
    while the single-run ["c0"] convention maps to [None]. *)

val shard_of_id : string -> int option
(** Shard tag of an emitter id: sharded fleet runs suffix labels with
    the backend shard, so ["bare/c0@s3"] maps to [Some 3] while
    unsharded ids (["bare/c0"], ["c0"]) map to [None]. *)

val tag : record -> string
(** Short stable tag for the record's event: its JSONL ["ev"] name
    ("tx", "retx", "rx", "ack", ...), or the [Message] tag. *)

val detail : record -> string
(** The event's fields as space-separated [key=value] pairs, with the
    JSON keys; a [Message]'s detail as it is. *)

val find : t -> tag:string -> record list
val clear : t -> unit

val pp_record : Format.formatter -> record -> unit

(** {1 JSONL}

    One flat JSON object per record.  [record_to_json] and
    [record_of_json] round-trip exactly (floats use ["%.17g"]). *)

val record_to_json : ?run:string -> record -> string
(** Single-line JSON object; [run] labels multi-run files (sweeps). *)

val record_of_json : string -> (string option * record, string) result
(** Parse one line back into an optional run label and a record.
    Returns [Error msg] on malformed input. *)

val fold_jsonl :
  ?unknown:(string -> unit) ->
  string -> init:'a -> f:('a -> string option -> record -> 'a) -> ('a, string) result
(** Stream a JSONL trace file record by record, in file order, without
    materializing it — constant memory however large the file.
    Returns [Error] with a human-readable message when the file is
    missing or unreadable, or when any line fails to parse (with its
    line number).  A file with no records folds to [Ok init].

    [?unknown] opts into forward compatibility: a well-formed line
    whose ["ev"] tag this reader has no case for (a newer writer's
    event kind) is skipped and the callback invoked with the tag,
    instead of failing the fold.  Malformed lines still [Error]. *)

val load_jsonl : string -> ((string option * record) list, string) result
(** Load every record of a JSONL trace file, in file order.  Returns
    [Error] with a human-readable message when the file is missing or
    unreadable, when any line fails to parse (with its line number),
    or when the file contains no records at all. *)

(** {1 Binary trace format}

    A compact fixed-width encoding of the same records: a 16-byte
    versioned header, one record per event (12-byte prefix, then its
    entry's fields at the widths {!ty} gives), and interned string
    tables in a trailer located via a fixed footer.  Typically 3–4x smaller and several
    times faster to write than JSONL; [record_to_json]-visible content
    round-trips exactly (ints as i64, floats as IEEE-754 bits).  See
    DESIGN.md "Binary trace & streaming spans" for the layout table. *)

module Binary : sig
  val magic : string
  (** First 8 bytes of every binary trace file. *)

  val version : int
  (** Version written by new files (4).  The reader accepts versions 1
      (pre-decision-ledger) through [version]; with [fold_file]'s
      [?unknown] callback it also accepts newer versions, skipping
      record kinds it cannot decode.  From v4 on, writers of later
      versions must encode kinds unknown to v4 with an explicit u16
      payload-length field right after the 12-byte record prefix so
      older readers can skip them. *)

  type writer

  val writer : out_channel -> writer
  (** Write the header and return a streaming writer.  The channel must
      be in binary mode; the caller closes it after [finish]. *)

  val write : writer -> ?run:string -> record -> unit
  (** Append one record; [run] labels multi-run files (sweeps).
      Raises [Failure] past 65536 distinct ids/run labels. *)

  val written : writer -> int
  (** Records written so far. *)

  val finish : writer -> unit
  (** Write the string tables and footer and flush.  Idempotent; the
      writer accepts no further [write]s. *)

  val is_binary : string -> bool
  (** Sniff the file's first 8 bytes for the binary magic. *)

  val fold_file :
    ?unknown:(string -> unit) ->
    string -> init:'a -> f:('a -> string option -> record -> 'a) -> ('a, string) result
  (** Stream a binary trace file record by record, in file order, with
      memory bounded by the interned string tables.  [Error] on
      missing/unreadable/corrupt files; a corrupt file's error names
      the byte offset where it went wrong, and no count read from the
      file sizes an allocation before it is checked against the file's
      size.

      [?unknown] opts into forward compatibility: files written by
      newer versions are accepted, and records of kinds this reader
      cannot decode are skipped (via their explicit u16 payload
      length), invoking the callback with ["kind <k>"].  Without it,
      both hard-fail — exact tools like [convert] stay strict. *)

  val load_file : string -> ((string option * record) list, string) result
  (** Materialize a whole binary trace file, in file order. *)
end

val fold_file :
  ?unknown:(string -> unit) ->
  string -> init:'a -> f:('a -> string option -> record -> 'a) -> ('a, string) result
(** [fold_jsonl] or [Binary.fold_file], chosen by sniffing the magic;
    [?unknown] passes through to either (forward-compat skip). *)
