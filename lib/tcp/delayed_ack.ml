type t = {
  engine : Sim.Engine.t;
  timeout : Sim.Time.span;
  max_pending : int;
  send_ack : unit -> unit;
  mutable pending : int;
  mutable timer : Sim.Engine.handle;
  mutable by_count : int;
  mutable by_timer : int;
  mutable trace : (Sim.Trace.t * string) option;
}

let create engine ?(timeout = Sim.Time.ms 40) ?(max_pending = 2) ~send_ack () =
  if timeout <= 0 then invalid_arg "Delayed_ack.create: timeout must be positive";
  if max_pending < 1 then invalid_arg "Delayed_ack.create: max_pending must be >= 1";
  {
    engine;
    timeout;
    max_pending;
    send_ack;
    pending = 0;
    timer = Sim.Engine.idle;
    by_count = 0;
    by_timer = 0;
    trace = None;
  }

let set_trace t tr ~id = t.trace <- Some (tr, id)

(* Call sites construct event payloads only behind [tracing]: this
   module runs once per data segment / outgoing ACK, so an unguarded
   record literal would allocate on the hot path even with tracing
   off. *)
let tracing t =
  match t.trace with Some (tr, _) -> Sim.Trace.enabled tr | None -> false

let emit t ev =
  match t.trace with
  | Some (tr, id) -> Sim.Trace.event tr ~at:(Sim.Engine.now t.engine) ~id ev
  | None -> ()

let disarm t = Sim.Engine.cancel t.engine t.timer

let on_ack_sent t =
  (* An armed timer that never fires: the ack went out another way. *)
  if Sim.Engine.is_pending t.timer && t.pending > 0 && tracing t then
    emit t (Sim.Trace.Delack_cancel { pending = t.pending });
  t.pending <- 0;
  disarm t

let fire t () =
  if t.pending > 0 then begin
    t.by_timer <- t.by_timer + 1;
    if tracing t then emit t (Sim.Trace.Delack_fire { pending = t.pending });
    (* send_ack reaches the socket's transmit path, which calls
       on_ack_sent and resets the state. *)
    t.send_ack ()
  end

let on_data_segment t =
  t.pending <- t.pending + 1;
  if t.pending >= t.max_pending then begin
    t.by_count <- t.by_count + 1;
    t.send_ack ()
  end
  else if not (Sim.Engine.is_pending t.timer) then begin
    if t.timer == Sim.Engine.idle then t.timer <- Sim.Engine.handle ();
    Sim.Engine.arm t.engine t.timer ~after:t.timeout fire t ()
  end

let pending t = t.pending
let timer_armed t = Sim.Engine.is_pending t.timer
let acks_forced_by_count t = t.by_count
let acks_forced_by_timer t = t.by_timer
