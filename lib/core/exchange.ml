type triple = {
  unacked : Queue_state.share;
  unread : Queue_state.share;
  ackdelay : Queue_state.share;
}

type wire = {
  time : float;
  unacked_total : float;
  unread_total : float;
  ackdelay_total : float;
  unacked_integral : float;
  unread_integral : float;
  ackdelay_integral : float;
  hint_time : float;
  hint_total : float;
  hint_integral : float;
}

let none =
  { time = Float.nan; unacked_total = Float.nan; unread_total = Float.nan;
    ackdelay_total = Float.nan; unacked_integral = Float.nan; unread_integral = Float.nan;
    ackdelay_integral = Float.nan; hint_time = Float.nan; hint_total = Float.nan;
    hint_integral = Float.nan }

let has_share w = not (Float.is_nan w.time)
let has_hint w = not (Float.is_nan w.hint_time)

let with_share w (tr : triple) =
  { w with
    time = float_of_int tr.unacked.time;
    unacked_total = float_of_int tr.unacked.total;
    unread_total = float_of_int tr.unread.total;
    ackdelay_total = float_of_int tr.ackdelay.total;
    unacked_integral = tr.unacked.integral;
    unread_integral = tr.unread.integral;
    ackdelay_integral = tr.ackdelay.integral }

let of_triple tr = with_share none tr

let without_share w =
  if has_hint w then
    { none with hint_time = w.hint_time; hint_total = w.hint_total;
      hint_integral = w.hint_integral }
  else none

let to_triple w : triple =
  let time = int_of_float w.time in
  let share total integral : Queue_state.share =
    { time; total = int_of_float total; integral }
  in
  { unacked = share w.unacked_total w.unacked_integral;
    unread = share w.unread_total w.unread_integral;
    ackdelay = share w.ackdelay_total w.ackdelay_integral }

let wire_size = 36

let mask32 = 0xFFFF_FFFF

(* Per-counter wire representation: time in whole microseconds, total in
   items, integral in item-microseconds, each modulo 2^32. *)
let to_u32_time (t : Sim.Time.t) = Sim.Time.to_ns t / 1_000 land mask32
let to_u32_integral integral = int_of_float (integral /. 1e3) land mask32

let put_u32 buf off v =
  Bytes.set_uint16_le buf off (v land 0xFFFF);
  Bytes.set_uint16_le buf (off + 2) ((v lsr 16) land 0xFFFF)

let get_u32 s off =
  String.get_uint16_le s off lor (String.get_uint16_le s (off + 2) lsl 16)

let encode_share buf off (s : Queue_state.share) =
  put_u32 buf off (to_u32_time s.time);
  put_u32 buf (off + 4) (s.total land mask32);
  put_u32 buf (off + 8) (to_u32_integral s.integral)

let decode_share s off : Queue_state.share =
  {
    time = Sim.Time.us (get_u32 s off);
    total = get_u32 s (off + 4);
    integral = float_of_int (get_u32 s (off + 8)) *. 1e3;
  }

let encode t =
  let buf = Bytes.create wire_size in
  encode_share buf 0 t.unacked;
  encode_share buf 12 t.unread;
  encode_share buf 24 t.ackdelay;
  Bytes.unsafe_to_string buf

let decode s =
  if String.length s <> wire_size then
    Error
      (Printf.sprintf "Exchange.decode: expected %d bytes, got %d" wire_size
         (String.length s))
  else begin
    let t =
      {
        unacked = decode_share s 0;
        unread = decode_share s 12;
        ackdelay = decode_share s 24;
      }
    in
    (* All three shares of a triple are snapshotted at the same instant
       (Queue_state.snapshot stamps the caller's [at]), so their wire
       times must agree.  Random or corrupted payloads pass this with
       probability 2^-64 — it is the codec's integrity check, at zero
       wire cost. *)
    if
      Sim.Time.compare t.unacked.time t.unread.time <> 0
      || Sim.Time.compare t.unread.time t.ackdelay.time <> 0
    then Error "Exchange.decode: snapshot times disagree across shares"
    else Ok t
  end

(* Reconstruct a monotone counter from its wrapped 32-bit value, given
   the previous full-width value: advance by the wrapped delta. *)
let unwrap_counter ~prev ~cur_wrapped =
  let delta = (cur_wrapped - (prev land mask32)) land mask32 in
  prev + delta

let unwrap_share ~(prev : Queue_state.share) ~(cur : Queue_state.share) :
    Queue_state.share =
  let time_us =
    unwrap_counter
      ~prev:(Sim.Time.to_ns prev.time / 1_000)
      ~cur_wrapped:(Sim.Time.to_ns cur.time / 1_000)
  in
  let total = unwrap_counter ~prev:prev.total ~cur_wrapped:cur.total in
  let integral_us =
    unwrap_counter
      ~prev:(int_of_float (prev.integral /. 1e3))
      ~cur_wrapped:(int_of_float (cur.integral /. 1e3))
  in
  { time = Sim.Time.us time_us; total; integral = float_of_int integral_us *. 1e3 }

let unwrap ~prev ~cur =
  {
    unacked = unwrap_share ~prev:prev.unacked ~cur:cur.unacked;
    unread = unwrap_share ~prev:prev.unread ~cur:cur.unread;
    ackdelay = unwrap_share ~prev:prev.ackdelay ~cur:cur.ackdelay;
  }

type policy = Every_segment | Periodic of Sim.Time.span | On_demand

let due policy ~last_sent ~requested ~now =
  match policy with
  | Every_segment -> true
  | On_demand -> requested
  | Periodic interval -> last_sent < 0 || Sim.Time.diff now last_sent >= interval
