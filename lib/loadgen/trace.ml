type entry = { at : Sim.Time.t; cmd : Kv.Command.t }

let entry_to_line e =
  let us = Sim.Time.to_ns e.at / 1_000 in
  match e.cmd with
  | Kv.Command.Set { key; value; ttl = None } ->
    Ok (Printf.sprintf "%d SET %s %d" us key (String.length value))
  | Kv.Command.Get key -> Ok (Printf.sprintf "%d GET %s" us key)
  | cmd ->
    Error (Printf.sprintf "trace format does not cover %s" (Kv.Command.name cmd))

(* One shared value payload per size, as in Workload: domain-local so
   traces can be parsed from pool workers without racing on the
   table. *)
let value_cache : (int, string) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let value_of_size n =
  let cache = Domain.DLS.get value_cache in
  match Hashtbl.find_opt cache n with
  | Some v -> v
  | None ->
    let v = String.make n 'v' in
    Hashtbl.add cache n v;
    v

module D = Sim.Directive

let ( let* ) = Result.bind

let us = Sim.Time.us 1

let timestamp s =
  let* t = Result.map_error (fun msg -> "timestamp: " ^ msg) (D.integer ~unit:us s) in
  if t < 0 then Error (Printf.sprintf "timestamp %d must be >= 0" t) else Ok (Sim.Time.us t)

(* A SET's value must fit one RESP bulk string. *)
let value_size s =
  let* n = Result.map_error (fun msg -> "value size: " ^ msg) (D.integer s) in
  if n < 1 || n > Kv.Resp.max_bulk_length then
    Error (Printf.sprintf "value size %d out of range [1, %d]" n Kv.Resp.max_bulk_length)
  else Ok n

let entry (acc, last_at) fields =
  let* e =
    match fields with
    | [ at; "SET"; key; size ] ->
      let* at = timestamp at in
      let* size = value_size size in
      Ok { at; cmd = Kv.Command.Set { key; value = value_of_size size; ttl = None } }
    | [ at; "GET"; key ] ->
      let* at = timestamp at in
      Ok { at; cmd = Kv.Command.Get key }
    | _ -> Error "unrecognized trace line (expected: <us> SET <key> <bytes> | <us> GET <key>)"
  in
  if Sim.Time.compare e.at last_at < 0 then Error "timestamps must be non-decreasing"
  else Ok (e :: acc, e.at)

let to_string entries =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# e2ebatch trace: <microseconds> SET <key> <bytes> | GET <key>\n";
  List.iter
    (fun e ->
      match entry_to_line e with
      | Ok line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n'
      | Error msg -> invalid_arg ("Trace.to_string: " ^ msg))
    entries;
  Buffer.contents buf

let of_string s =
  Result.map (fun (acc, _) -> List.rev acc) (D.fold D.Records entry ([], Sim.Time.zero) s)

let save_file path entries =
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_string entries));
    Ok ()
  with Sys_error msg | Invalid_argument msg -> Error msg

let synthesize ~workload ~rate_rps ~duration ~rng =
  if rate_rps <= 0.0 then invalid_arg "Trace.synthesize: rate must be positive";
  let arrival = Arrival.poisson ~rng ~rate_rps in
  let rec go acc at =
    let at = Sim.Time.add at (Arrival.next_gap arrival ~now:at) in
    if Sim.Time.compare at duration > 0 then List.rev acc
    else go ({ at; cmd = Workload.next_command workload ~rng } :: acc) at
  in
  go [] Sim.Time.zero

let duration = function
  | [] -> 0
  | entries -> (List.nth entries (List.length entries - 1)).at

let count = List.length

(* {1 Inter-arrival gap traces}

   One non-negative gap in microseconds per line ([#] comments and
   blanks allowed); feeds [Arrival.replay]. *)

let gap acc = function
  | [ g ] ->
    let* g_us = Result.map_error (fun msg -> "gap: " ^ msg) (D.number ~unit:us g) in
    if g_us < 0.0 then Error (Printf.sprintf "gap %g must be non-negative" g_us)
    else Ok (int_of_float (g_us *. 1e3) :: acc)
  | _ -> Error "bad gap line (expected one number, microseconds)"

let gaps_of_string s =
  Result.map (fun acc -> Array.of_list (List.rev acc)) (D.fold D.Records gap [] s)

let gaps_to_string gaps =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# e2ebatch gap trace: one inter-arrival gap per line, microseconds\n";
  Array.iter
    (fun g -> Buffer.add_string buf (Printf.sprintf "%.3f\n" (float_of_int g /. 1e3)))
    gaps;
  Buffer.contents buf
