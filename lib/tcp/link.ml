(* Loss and fault injection, built the first time either is armed: a
   clean link carries none of it. *)
type impair = {
  mutable loss : (Sim.Rng.t * float) option;
  mutable fault : Fault.Injector.t option;
  mutable dropped : int;
  mutable corrupted_shares : int;
}

type t = {
  engine : Sim.Engine.t;
  mutable prop_delay : Sim.Time.span;
  mutable ns_per_byte : float;
  mutable tx_free_at : Sim.Time.t;
  mutable packets : int;
  mutable bytes : int;
  mutable tx_busy : Sim.Time.span;
  mutable impair : impair option;
  mutable trace : (Sim.Trace.t * string) option;
}

(* The serialization cost of the last rate asked for, as a (rate, cost)
   pair: links built at one rate share one boxed [ns_per_byte] float
   instead of a box each.  One per domain, since parallel sweeps build
   links on several domains at once. *)
let last_rate = Domain.DLS.new_key (fun () -> ref (0.0, 0.0))

let ns_per_byte gbit_per_s =
  let cache = Domain.DLS.get last_rate in
  let ((gbit, _) as pair) = !cache in
  let pair =
    if Float.equal gbit gbit_per_s then pair
    else begin
      let pair = (gbit_per_s, 8.0 /. gbit_per_s) in
      cache := pair;
      pair
    end
  in
  snd pair

let create engine ~prop_delay ~gbit_per_s =
  if prop_delay < 0 then invalid_arg "Link.create: negative propagation delay";
  if gbit_per_s <= 0.0 then invalid_arg "Link.create: rate must be positive";
  {
    engine;
    prop_delay;
    ns_per_byte = ns_per_byte gbit_per_s;
    tx_free_at = Sim.Time.zero;
    packets = 0;
    bytes = 0;
    tx_busy = 0;
    impair = None;
    trace = None;
  }

let impair t =
  match t.impair with
  | Some i -> i
  | None ->
    let i = { loss = None; fault = None; dropped = 0; corrupted_shares = 0 } in
    t.impair <- Some i;
    i

let set_loss t ~rng ~prob =
  if prob < 0.0 || prob >= 1.0 then invalid_arg "Link.set_loss: prob must be in [0,1)";
  (impair t).loss <- (if prob = 0.0 then None else Some (rng, prob))

let set_fault t inj = (impair t).fault <- Some inj
let fault t = match t.impair with Some i -> i.fault | None -> None

let set_trace t tr ~id = t.trace <- Some (tr, id)

let set_gbit_per_s t gbit_per_s =
  if gbit_per_s <= 0.0 then invalid_arg "Link.set_gbit_per_s: rate must be positive";
  t.ns_per_byte <- ns_per_byte gbit_per_s

let set_prop_delay t prop_delay =
  if prop_delay < 0 then invalid_arg "Link.set_prop_delay: negative propagation delay";
  t.prop_delay <- prop_delay

(* Call sites construct event payloads only behind [tracing], so the
   fault/loss paths allocate nothing when tracing is off. *)
let tracing t =
  match t.trace with Some (tr, _) -> Sim.Trace.enabled tr | None -> false

let emit t ~at ev =
  match t.trace with
  | Some (tr, id) -> Sim.Trace.event tr ~at ~id ev
  | None -> ()

let note_share_corrupted t ~seq =
  let i = impair t in
  i.corrupted_shares <- i.corrupted_shares + 1;
  if tracing t then
    emit t ~at:(Sim.Engine.now t.engine) (Sim.Trace.Share_corrupted { seq })

let send t ~seq ~wire_bytes fn a b =
  if wire_bytes <= 0 then invalid_arg "Link.send: packet must have positive size";
  let now = Sim.Engine.now t.engine in
  let tx_time =
    int_of_float (Float.round (float_of_int wire_bytes *. t.ns_per_byte))
  in
  let tx_time = Stdlib.max tx_time 1 in
  let start = Sim.Time.max now t.tx_free_at in
  let done_tx = Sim.Time.add start tx_time in
  t.tx_free_at <- done_tx;
  t.tx_busy <- t.tx_busy + tx_time;
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + wire_bytes;
  match t.impair with
  | None -> Sim.Engine.call_at t.engine ~at:(Sim.Time.add done_tx t.prop_delay) fn a b
  | Some i ->
    (* Loss is decided after serialization: the sender still spent the
       wire time, the receiver just never sees the packet. *)
    let lost =
      match i.loss with
      | Some (rng, prob) -> Sim.Rng.float rng < prob
      | None -> false
    in
    if lost then begin
      i.dropped <- i.dropped + 1;
      if tracing t then
        emit t ~at:now
          (Sim.Trace.Segment_dropped { seq; len = wire_bytes; reason = "loss" })
    end
    else begin
      match i.fault with
      | None ->
        Sim.Engine.call_at t.engine ~at:(Sim.Time.add done_tx t.prop_delay) fn a b
      | Some inj -> (
        match Fault.Injector.decide inj ~now_us:(Sim.Time.to_us now) with
        | { action = Drop reason; _ } ->
          i.dropped <- i.dropped + 1;
          if tracing t then
            emit t ~at:now
              (Sim.Trace.Segment_dropped { seq; len = wire_bytes; reason })
        | { action = Deliver; extra_delay_us; duplicate } ->
          let arrival = Sim.Time.add done_tx t.prop_delay in
          let arrival =
            if extra_delay_us > 0.0 then begin
              if tracing t then
                emit t ~at:now
                  (Sim.Trace.Segment_reordered { seq; delay_us = extra_delay_us });
              Sim.Time.add arrival (Sim.Time.ns (int_of_float (extra_delay_us *. 1e3)))
            end
            else arrival
          in
          Sim.Engine.call_at t.engine ~at:arrival fn a b;
          if duplicate then begin
            if tracing t then emit t ~at:now (Sim.Trace.Segment_duplicated { seq });
            (* The copy trails by a microsecond — far enough apart to be
               two deliveries, close enough to stress duplicate
               detection. *)
            Sim.Engine.call_at t.engine ~at:(Sim.Time.add arrival (Sim.Time.us 1)) fn a b
          end)
    end

let busy t = Sim.Time.compare t.tx_free_at (Sim.Engine.now t.engine) > 0
let packets t = t.packets
let bytes t = t.bytes
let tx_busy_ns t = t.tx_busy
let dropped t = match t.impair with Some i -> i.dropped | None -> 0
let corrupted_shares t = match t.impair with Some i -> i.corrupted_shares | None -> 0
