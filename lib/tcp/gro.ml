type config = {
  enabled : bool;
  max_bytes : int;
  flush_timeout : Sim.Time.span;
  mss : int;
}

let default_config ~mss =
  { enabled = true; max_bytes = 64 * 1024; flush_timeout = Sim.Time.us 12; mss }

(* [rx] is what [deliver] hands each batch to: a receive path passes
   its receiver and a top-level function, so that wiring a GRO builds
   no closure. *)
type 'r gro = {
  engine : Sim.Engine.t;
  cfg : config;
  rx : 'r;
  deliver : 'r -> Segment.t list -> unit;
  mutable held : Segment.t list;  (* newest first *)
  mutable held_bytes : int;
  mutable timer : Sim.Engine.handle;
  mutable batches : int;
  mutable segments : int;
}

type t = Gro : 'r gro -> t [@@unboxed]

let create engine cfg ~rx ~deliver =
  if cfg.max_bytes < cfg.mss then invalid_arg "Gro.create: max_bytes below one MSS";
  if cfg.flush_timeout <= 0 then invalid_arg "Gro.create: flush_timeout must be positive";
  Gro
    {
      engine;
      cfg;
      rx;
      deliver;
      held = [];
      held_bytes = 0;
      timer = Sim.Engine.idle;
      batches = 0;
      segments = 0;
    }

let disarm g =
  Sim.Engine.cancel g.engine g.timer;
  g.timer <- Sim.Engine.idle

let flush_gro g =
  disarm g;
  match g.held with
  | [] -> ()
  | held ->
    g.held <- [];
    g.held_bytes <- 0;
    g.batches <- g.batches + 1;
    g.deliver g.rx (List.rev held)

let flush (Gro g) = flush_gro g

let arm g =
  if not (Sim.Engine.is_pending g.timer) then
    g.timer <-
      Sim.Engine.schedule g.engine ~after:g.cfg.flush_timeout (fun () ->
          g.timer <- Sim.Engine.idle;
          flush_gro g)

let submit (Gro g) seg =
  g.segments <- g.segments + 1;
  if not g.cfg.enabled then begin
    g.batches <- g.batches + 1;
    g.deliver g.rx [ seg ]
  end
  else begin
    let len = seg.Segment.payload_len in
    if g.held_bytes + len > g.cfg.max_bytes then flush_gro g;
    g.held <- seg :: g.held;
    g.held_bytes <- g.held_bytes + len;
    (* Only a full-sized data segment can keep a batch open; short
       tails and pure acks terminate it. *)
    if len < g.cfg.mss then flush_gro g else arm g
  end

let pending (Gro g) = List.length g.held
let batches (Gro g) = g.batches
let segments (Gro g) = g.segments

let merge_ratio (Gro g) =
  if g.batches = 0 then 0.0 else float_of_int g.segments /. float_of_int g.batches
