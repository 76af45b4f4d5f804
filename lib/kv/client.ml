type config = {
  send_cost : Sim.Time.span;
  response_cost : Sim.Time.span;
  cpu_multiplier : float;
}

let default_config = { send_cost = Sim.Time.us 1; response_cost = Sim.Time.us 2; cpu_multiplier = 1.0 }

(* The requests awaiting a reply form a circular list threaded
   through [next]: the client holds the newest, whose [next] is the
   oldest. *)
type pending = {
  issued_at : Sim.Time.t;
  on_complete : latency:Sim.Time.span -> Resp.value -> unit;
  mutable next : pending;
}

let rec no_pending = { issued_at = 0; on_complete = (fun ~latency:_ _ -> ()); next = no_pending }

type t = {
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  socket : Tcp.Socket.t;
  send_cost : Sim.Time.span;
  response_cost : Sim.Time.span;
  parser : Resp.Parser.t;
  mutable pending : pending;  (* newest request awaiting a reply; [no_pending] = none *)
  hints : E2e.Hints.t;
  tail : Sim.Stats.P2.t;  (* online p99 without storing samples *)
  mutable busy : bool;
  mutable issued : int;
  mutable completed : int;  (* issued - completed requests are pending *)
  mutable next_off : int;  (* stream offset of the next command byte *)
}

(* Request-lifecycle trace events ride on the socket's trace ring under
   the socket's label, so `Sim.Span` can correlate them with segment
   events by connection.  Payload construction is guarded on
   [span_tracing] — emission is branch-only when tracing is off. *)
let span_tracing t =
  match Tcp.Socket.trace t.socket with
  | Some tr -> Sim.Trace.enabled tr
  | None -> false

let span_event t ~at ev =
  match Tcp.Socket.trace t.socket with
  | Some tr -> Sim.Trace.event tr ~at ~id:(Tcp.Socket.label t.socket) ev
  | None -> ()

let scale mult span =
  int_of_float (Float.round (float_of_int span *. mult))

let rec create engine ~cpu ~socket cfg =
  if cfg.cpu_multiplier <= 0.0 then
    invalid_arg "Client.create: cpu_multiplier must be positive";
  let t =
    {
      engine;
      cpu;
      socket;
      send_cost = scale cfg.cpu_multiplier cfg.send_cost;
      response_cost = scale cfg.cpu_multiplier cfg.response_cost;
      parser = Resp.Parser.create ();
      pending = no_pending;
      hints = E2e.Hints.tracker ~at:(Sim.Engine.now engine);
      tail = Sim.Stats.P2.create ~q:0.99;
      busy = false;
      issued = 0;
      completed = 0;
      next_off = 0;
    }
  in
  Tcp.Socket.set_hint_tracker socket t.hints;
  Tcp.Socket.on_readable socket (fun () -> wake t);
  t

(* The application read loop: pull everything off the socket, then
   handle complete responses one at a time, charging [c] per response
   on the client CPU before looking at the next one. *)
and wake t = if not t.busy then process t

and process t =
  let avail = Tcp.Socket.recv_available t.socket in
  if avail > 0 then ignore (Tcp.Socket.recv_into t.socket (Resp.Parser.input t.parser) avail);
  match Resp.Parser.next t.parser with
  | Error msg -> failwith ("kv client: protocol error: " ^ msg)
  | Ok None -> ()
  | Ok (Some reply) ->
    let now = Sim.Engine.now t.engine in
    let last = t.pending in
    if last == no_pending then failwith "kv client: response with no outstanding request";
    let rec_ = last.next in
    if rec_ == last then t.pending <- no_pending else last.next <- rec_.next;
    let latency = Sim.Time.diff now rec_.issued_at in
    t.completed <- t.completed + 1;
    if span_tracing t then
      span_event t ~at:now (Sim.Trace.Req_complete { req = t.completed - 1 });
    Sim.Stats.P2.add t.tail (float_of_int latency);
    E2e.Hints.complete t.hints ~at:now 1;
    rec_.on_complete ~latency reply;
    t.busy <- true;
    Sim.Cpu.call t.cpu ~cost:t.response_cost resume t ()

and resume t () =
  t.busy <- false;
  process t

let outstanding t = t.issued - t.completed
let issued t = t.issued

let request t cmd ~on_complete =
  let now = Sim.Engine.now t.engine in
  let req = t.issued in
  E2e.Hints.create t.hints ~at:now 1;
  let p = { issued_at = now; on_complete; next = no_pending } in
  let last = t.pending in
  if last == no_pending then p.next <- p
  else begin
    p.next <- last.next;
    last.next <- p
  end;
  t.pending <- p;
  t.issued <- t.issued + 1;
  let wire = Command.encode_slices cmd in
  let len = Tcp.Slice.total_length wire in
  if span_tracing t then
    span_event t ~at:now (Sim.Trace.Req_issued { req; off = t.next_off; len });
  t.next_off <- t.next_off + len;
  Sim.Cpu.run t.cpu ~cost:t.send_cost (fun () ->
      if span_tracing t then
        span_event t ~at:(Sim.Engine.now t.engine) (Sim.Trace.Req_sent { req });
      Tcp.Socket.send_slices t.socket wire)

let completed t = t.completed
let hint_tracker t = t.hints

let p99_estimate_ns t = Sim.Stats.P2.value t.tail
