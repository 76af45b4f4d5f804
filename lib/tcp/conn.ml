type host_params = {
  socket : Socket.config;
  tx_cost : Sim.Time.span;
  rx_seg_cost : Sim.Time.span;
  rx_batch_cost : Sim.Time.span;
  gro : Gro.config;
}

let default_host =
  {
    socket = Socket.default_config;
    tx_cost = Sim.Time.ns 300;
    rx_seg_cost = Sim.Time.ns 150;
    rx_batch_cost = Sim.Time.us 8;
    gro = Gro.default_config ~mss:Socket.default_config.mss;
  }

type link_params = { prop_delay : Sim.Time.span; gbit_per_s : float }

let default_link = { prop_delay = Sim.Time.us 10; gbit_per_s = 100.0 }

(* The GROs are built after the record, to deliver into it (see
   [create]). *)
type t = {
  a : Socket.t;
  b : Socket.t;
  cpu_a : Sim.Cpu.t;
  cpu_b : Sim.Cpu.t;
  host_a : host_params;
  host_b : host_params;
  ab : Link.t;
  ba : Link.t;
  mutable gro_a : Gro.t;
  mutable gro_b : Gro.t;
}

(* TSO wire split: a super-segment leaves the stack as one unit (one
   transmit-path cost) but crosses the wire as MSS-sized packets.  The
   metadata options ride the first packet; PSH and the message-boundary
   count ride the last. *)
let split_tso ~mss (seg : Segment.t) =
  let len = seg.Segment.payload_len in
  let rec go off acc =
    if off >= len then List.rev acc
    else begin
      let n = Stdlib.min mss (len - off) in
      let first = off = 0 and last = off + n >= len in
      let payload, payload_rest = Segment.sub_payload seg off n in
      let sub =
        {
          seg with
          Segment.seq = seg.seq + off;
          payload;
          payload_rest;
          payload_len = n;
          push = seg.push && last;
          msg_ends = (if last then seg.msg_ends else 0);
          e2e = (if first then seg.e2e else E2e.Exchange.none);
          (* SACK blocks, like the other option metadata, ride the
             first wire packet only (RST/SYN never carry payload, so
             they are never split). *)
          sack = (if first then seg.sack else []);
        }
      in
      go (off + n) (sub :: acc)
    end
  in
  go 0 []

(* One wire packet: corruption, then the link, then the receiver's
   GRO.  Corruption targets the exchange option bytes, so it has to
   happen here where the option still rides the segment; the wire size
   is unchanged (same 36 bytes, different contents — or none, when the
   mangled payload no longer decodes, which leaves the hint). *)
let put_packet ~link ~gro (sub : Segment.t) =
  let wire_bytes = Segment.wire_bytes sub in
  let sub =
    match Link.fault link with
    | Some inj when E2e.Exchange.has_share sub.e2e -> (
      match Fault.Injector.corrupt_share inj sub.e2e with
      | None -> sub
      | Some garbled ->
        (* An undecodable option still crossed the wire: bill
           [wire_bytes] from the original segment. *)
        Link.note_share_corrupted link ~seq:sub.seq;
        { sub with e2e = garbled })
    | _ -> sub
  in
  Link.send link ~seq:sub.seq ~wire_bytes Gro.submit gro sub

(* Receive path: GRO coalescing -> receiver IRQ CPU per delivery ->
   peer socket.  Header-only batches (pure acks) skip the full stack
   traversal and wakeup path; only data deliveries pay the per-batch
   cost. *)
let deliver ~dst ~cpu ~(params : host_params) batch =
  let has_payload = List.exists (fun seg -> seg.Segment.payload_len > 0) batch in
  let cost =
    (if has_payload then params.rx_batch_cost else 0) + (List.length batch * params.rx_seg_cost)
  in
  Sim.Cpu.call cpu ~cost Socket.receive_batch dst batch

let deliver_a t batch = deliver ~dst:t.a ~cpu:t.cpu_a ~params:t.host_a batch
let deliver_b t batch = deliver ~dst:t.b ~cpu:t.cpu_b ~params:t.host_b batch

(* Transmit path: sender IRQ CPU per stack segment (one per TSO
   super-segment) -> wire split -> link (serialization + propagation
   per packet) -> the receiver's GRO. *)
let put_on_link ~(params : host_params) ~link ~gro seg =
  let mss = params.socket.Socket.mss in
  if seg.Segment.payload_len <= mss then put_packet ~link ~gro seg
  else List.iter (put_packet ~link ~gro) (split_tso ~mss seg)

let send_ab t seg = put_on_link ~params:t.host_a ~link:t.ab ~gro:t.gro_b seg
let send_ba t seg = put_on_link ~params:t.host_b ~link:t.ba ~gro:t.gro_a seg

let transmit_ab t seg = Sim.Cpu.call t.cpu_a ~cost:t.host_a.tx_cost send_ab t seg
let transmit_ba t seg = Sim.Cpu.call t.cpu_b ~cost:t.host_b.tx_cost send_ba t seg

let cork_signal engine ~link () =
  if Link.busy link then
    (* Approximate the reclaim instant with a short backoff; the socket
       re-checks on the kick. *)
    Some (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.us 1))
  else None

(* Holds a new connection's GRO fields until its GROs exist. *)
let unwired =
  Gro.create (Sim.Engine.create ()) (Gro.default_config ~mss:1) ~rx:() ~deliver:(fun () _ -> ())

let create engine ?(a = default_host) ?(b = default_host) ?(link_ab = default_link)
    ?(link_ba = default_link) ?cpu_a ?cpu_b ?(label_a = "A") ?(label_b = "B") () =
  let sock_a = Socket.create ~label:label_a engine a.socket in
  let sock_b = Socket.create ~label:label_b engine b.socket in
  Socket.negotiate_window_scaling sock_a sock_b;
  let cpu_a = match cpu_a with Some c -> c | None -> Sim.Cpu.create engine in
  let cpu_b = match cpu_b with Some c -> c | None -> Sim.Cpu.create engine in
  let ab = Link.create engine ~prop_delay:link_ab.prop_delay ~gbit_per_s:link_ab.gbit_per_s in
  let ba = Link.create engine ~prop_delay:link_ba.prop_delay ~gbit_per_s:link_ba.gbit_per_s in
  let t =
    { a = sock_a; b = sock_b; cpu_a; cpu_b; host_a = a; host_b = b; ab; ba; gro_a = unwired;
      gro_b = unwired }
  in
  t.gro_b <- Gro.create engine b.gro ~rx:t ~deliver:deliver_b;
  Socket.set_transmit sock_a (fun seg -> transmit_ab t seg);
  if a.socket.Socket.cork then Socket.set_cork_signal sock_a (cork_signal engine ~link:ab);
  t.gro_a <- Gro.create engine a.gro ~rx:t ~deliver:deliver_a;
  Socket.set_transmit sock_b (fun seg -> transmit_ba t seg);
  if b.socket.Socket.cork then Socket.set_cork_signal sock_b (cork_signal engine ~link:ba);
  t

let sock_a t = t.a
let sock_b t = t.b
let gro_a t = t.gro_a
let gro_b t = t.gro_b
let link_ab t = t.ab
let link_ba t = t.ba

let total_packets t = Link.packets t.ab + Link.packets t.ba
