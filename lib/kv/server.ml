type config = {
  alpha : Sim.Time.span;
  beta : Sim.Time.span;
  wake_delay : Sim.Time.span;
}

let default_config =
  { alpha = Sim.Time.us 6; beta = Sim.Time.us 4; wake_delay = Sim.Time.zero }

type t = {
  engine : Sim.Engine.t;
  cpu : Sim.Cpu.t;
  socket : Tcp.Socket.t;
  store : Store.t;
  cfg : config;
  parser : Resp.Parser.t;
  mutable busy : bool;
  mutable wake_pending : bool;  (* a delayed wake is already scheduled *)
  mutable served : int;
  mutable wakeups : int;
  mutable empty_wakeups : int;
  mutable req_seq : int;  (* next request index to dequeue (FIFO) *)
  mutable reply_off : int;  (* stream offset of the next reply byte *)
  batch_sizes : Sim.Stats.Summary.t;
}

(* Request-lifecycle trace events, labelled with the server socket's
   label so `Sim.Span` can pair them with the client side (c<i> ↔ s<i>).
   Payload construction is guarded on [span_tracing]. *)
let span_tracing t =
  match Tcp.Socket.trace t.socket with
  | Some tr -> Sim.Trace.enabled tr
  | None -> false

let span_event t ~at ev =
  match Tcp.Socket.trace t.socket with
  | Some tr -> Sim.Trace.event tr ~at ~id:(Tcp.Socket.label t.socket) ev
  | None -> ()

(* The constant reply to SET and friends, encoded once. *)
let ok_wire = Resp.encode_slices (Resp.Simple "OK")

let drain_requests t =
  let rec go acc =
    match Resp.Parser.next t.parser with
    | Ok (Some value) -> (
      match Command.of_resp value with
      | Ok cmd -> go (cmd :: acc)
      | Error msg -> failwith ("kv server: unparsable command: " ^ msg))
    | Ok None -> List.rev acc
    | Error msg -> failwith ("kv server: protocol error: " ^ msg)
  in
  go []

(* A slow consumer: [wake_delay > 0] models an application that takes a
   scheduling delay to get around to reading, so received data sits in
   the socket buffer and the advertised window stays closed for real
   intervals — the regime where the peer's zero-window persist timer is
   load-bearing.  The default (zero) calls [process] synchronously, not
   via a zero-delay engine event, so event ordering — and therefore
   every existing run — is bit-identical. *)
let rec wake t =
  if t.cfg.wake_delay > Sim.Time.zero then begin
    if not t.wake_pending then begin
      t.wake_pending <- true;
      Sim.Engine.post t.engine ~after:t.cfg.wake_delay (fun () ->
          t.wake_pending <- false;
          if not t.busy then process t)
    end
  end
  else if not t.busy then process t

and process t =
  t.busy <- true;
  t.wakeups <- t.wakeups + 1;
  let avail = Tcp.Socket.recv_available t.socket in
  if avail > 0 then ignore (Tcp.Socket.recv_into t.socket (Resp.Parser.input t.parser) avail);
  let requests = drain_requests t in
  let k = List.length requests in
  if k = 0 then t.empty_wakeups <- t.empty_wakeups + 1
  else Sim.Stats.Summary.add t.batch_sizes (float_of_int k);
  let first_req = t.req_seq in
  t.req_seq <- t.req_seq + k;
  if k > 0 && span_tracing t then begin
    let at = Sim.Engine.now t.engine in
    for j = 0 to k - 1 do
      span_event t ~at (Sim.Trace.Srv_start { req = first_req + j })
    done
  end;
  let cost = t.cfg.beta + (k * t.cfg.alpha) in
  Sim.Cpu.call t.cpu ~cost serve t requests

(* The batch's CPU item completes: reply to each request in order.
   Nothing dequeues while the server is busy, so the batch's first
   request is still [req_seq] minus its length. *)
and serve t requests =
  let now = Sim.Engine.now t.engine in
  reply_each t ~now (t.req_seq - List.length requests) requests;
  t.busy <- false;
  (* Data may have accumulated while we were processing. *)
  if Tcp.Socket.recv_available t.socket > 0 then process t

and reply_each t ~now req = function
  | [] -> ()
  | cmd :: rest ->
    let reply = Command.execute t.store ~now cmd in
    t.served <- t.served + 1;
    let wire = match reply with Resp.Simple "OK" -> ok_wire | _ -> Resp.encode_slices reply in
    let len = Tcp.Slice.total_length wire in
    if span_tracing t then
      span_event t ~at:now (Sim.Trace.Srv_reply { req; off = t.reply_off; len });
    t.reply_off <- t.reply_off + len;
    Tcp.Socket.send_slices t.socket wire;
    reply_each t ~now (req + 1) rest

let create engine ~cpu ~socket ?(store = Store.create ()) cfg =
  if cfg.alpha < 0 || cfg.beta < 0 then invalid_arg "Server.create: negative costs";
  let t =
    {
      engine;
      cpu;
      socket;
      store;
      cfg;
      parser = Resp.Parser.create ();
      busy = false;
      wake_pending = false;
      served = 0;
      wakeups = 0;
      empty_wakeups = 0;
      req_seq = 0;
      reply_off = 0;
      batch_sizes = Sim.Stats.Summary.create ();
    }
  in
  Tcp.Socket.on_readable socket (fun () -> wake t);
  t

let store t = t.store
let requests_served t = t.served
let wakeups t = t.wakeups
let empty_wakeups t = t.empty_wakeups
let batch_sizes t = t.batch_sizes
