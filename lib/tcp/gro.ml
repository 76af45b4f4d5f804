type config = {
  enabled : bool;
  max_bytes : int;
  flush_timeout : Sim.Time.span;
  mss : int;
}

let default_config ~mss =
  { enabled = true; max_bytes = 64 * 1024; flush_timeout = Sim.Time.us 12; mss }

type t = {
  engine : Sim.Engine.t;
  cfg : config;
  deliver : Segment.t list -> unit;
  mutable held : Segment.t list;  (* newest first *)
  mutable held_bytes : int;
  mutable timer : Sim.Engine.handle;
  mutable batches : int;
  mutable segments : int;
}

let create engine cfg ~deliver =
  if cfg.max_bytes < cfg.mss then invalid_arg "Gro.create: max_bytes below one MSS";
  if cfg.flush_timeout <= 0 then invalid_arg "Gro.create: flush_timeout must be positive";
  {
    engine;
    cfg;
    deliver;
    held = [];
    held_bytes = 0;
    timer = Sim.Engine.idle;
    batches = 0;
    segments = 0;
  }

let disarm t =
  Sim.Engine.cancel t.engine t.timer;
  t.timer <- Sim.Engine.idle

let flush t =
  disarm t;
  match t.held with
  | [] -> ()
  | held ->
    t.held <- [];
    t.held_bytes <- 0;
    t.batches <- t.batches + 1;
    t.deliver (List.rev held)

let arm t =
  if not (Sim.Engine.is_pending t.timer) then
    t.timer <-
      Sim.Engine.schedule t.engine ~after:t.cfg.flush_timeout (fun () ->
          t.timer <- Sim.Engine.idle;
          flush t)

let submit t seg =
  t.segments <- t.segments + 1;
  if not t.cfg.enabled then begin
    t.batches <- t.batches + 1;
    t.deliver [ seg ]
  end
  else begin
    let len = seg.Segment.payload_len in
    if t.held_bytes + len > t.cfg.max_bytes then flush t;
    t.held <- seg :: t.held;
    t.held_bytes <- t.held_bytes + len;
    (* Only a full-sized data segment can keep a batch open; short
       tails and pure acks terminate it. *)
    if len < t.cfg.mss then flush t else arm t
  end

let pending t = List.length t.held
let batches t = t.batches
let segments t = t.segments

let merge_ratio t =
  if t.batches = 0 then 0.0 else float_of_int t.segments /. float_of_int t.batches
