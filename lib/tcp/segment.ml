type t = {
  seq : int;
  ack : int;
  payload : Slice.t;
  window : int;
  push : bool;
  msg_ends : int;
  e2e : E2e.Exchange.triple option;
  hint : E2e.Queue_state.share option;
  ts_val : int option;  (* sender clock, us *)
  ts_ecr : int option;  (* echoed peer clock, us *)
  sack : (int * int) list;  (* [left, right) received ranges, RFC 2018 *)
  rst : bool;
  syn : bool;
  fin : bool;
}

let make ?payload ?(push = false) ?(msg_ends = 0) ?e2e ?hint ?ts_val ?ts_ecr
    ?(sack = []) ?(rst = false) ?(syn = false) ?(fin = false) ~seq ~ack ~window () =
  let payload = match payload with Some s -> Slice.of_string s | None -> Slice.empty in
  { seq; ack; payload; window; push; msg_ends; e2e; hint; ts_val; ts_ecr; sack; rst; syn; fin }

let len t = Slice.length t.payload

let is_pure_ack t = len t = 0 && not t.fin && not t.rst && not t.syn

let seq_len t = len t + if t.fin then 1 else 0

let header_bytes = 78

let wire_bytes t =
  let opt = match t.e2e with None -> 0 | Some _ -> E2e.Exchange.wire_size + 4 in
  let sack_opt =
    match t.sack with [] -> 0 | blocks -> 4 + (8 * List.length blocks)
  in
  header_bytes + len t + opt + sack_opt

let pp ppf t =
  Format.fprintf ppf "seq=%d ack=%d len=%d win=%d%s%s%s%s%s" t.seq t.ack (len t)
    t.window
    (if t.push then " PSH" else "" ^ if t.fin then " FIN" else "")
    (if t.rst then " RST" else "")
    (if t.syn then " SYN" else "")
    (match t.sack with
    | [] -> ""
    | b -> Printf.sprintf " SACK(%d)" (List.length b))
    (match t.e2e with None -> "" | Some _ -> " E2E")
