type t = {
  seq : int;
  ack : int;
  payload : Slice.t;  (* first view *)
  payload_rest : Slice.t list;  (* further views, usually [] *)
  payload_len : int;  (* summed over the views *)
  window : int;
  push : bool;
  msg_ends : int;
  e2e : E2e.Exchange.wire;  (* Exchange.none for none *)
  ts_val : int;  (* sender clock, us; -1 = absent *)
  ts_ecr : int;  (* echoed peer clock, us; -1 = absent *)
  sack : (int * int) list;  (* [left, right) received ranges, RFC 2018 *)
  rst : bool;
  syn : bool;
  fin : bool;
}

let make ?payload ?(push = false) ?(msg_ends = 0) ?(e2e = E2e.Exchange.none) ?(ts_val = -1)
    ?(ts_ecr = -1) ?(sack = []) ?(rst = false) ?(syn = false) ?(fin = false) ~seq ~ack ~window
    () =
  let payload = match payload with Some s -> Slice.of_string s | None -> Slice.empty in
  { seq; ack; payload; payload_rest = []; payload_len = payload.Slice.len; window; push;
    msg_ends; e2e; ts_val; ts_ecr; sack; rst; syn; fin }

let len t = t.payload_len

(* The views of bytes [off, off + len) of the views [s :: rest]. *)
let rec views_from s rest off len =
  let n = s.Slice.len in
  if off >= n then
    match rest with
    | s' :: rest' -> views_from s' rest' (off - n) len
    | [] -> invalid_arg "Segment.sub_payload"
  else if off + len <= n then (Slice.sub s off len, [])
  else (Slice.sub s off (n - off), prefix_views rest (len - (n - off)))

and prefix_views views len =
  match views with
  | _ when len = 0 -> []
  | s :: rest ->
    let n = s.Slice.len in
    if len <= n then [ Slice.sub s 0 len ] else s :: prefix_views rest (len - n)
  | [] -> invalid_arg "Segment.sub_payload"

let sub_payload t off n =
  if off < 0 || n < 0 || off + n > len t then invalid_arg "Segment.sub_payload";
  if n = 0 then (Slice.empty, []) else views_from t.payload t.payload_rest off n

let is_pure_ack t = len t = 0 && not t.fin && not t.rst && not t.syn

let seq_len t = len t + if t.fin then 1 else 0

let header_bytes = 78

let wire_bytes t =
  let opt = if E2e.Exchange.has_share t.e2e then E2e.Exchange.wire_size + 4 else 0 in
  let sack_opt =
    match t.sack with [] -> 0 | blocks -> 4 + (8 * List.length blocks)
  in
  header_bytes + len t + opt + sack_opt
