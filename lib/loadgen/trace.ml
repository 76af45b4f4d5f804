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

let parse_line line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok None
  else begin
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [ us; "SET"; key; size ] -> (
      match (int_of_string_opt us, int_of_string_opt size) with
      | Some us, Some size when us >= 0 && size > 0 ->
        Ok
          (Some
             {
               at = Sim.Time.us us;
               cmd = Kv.Command.Set { key; value = value_of_size size; ttl = None };
             })
      | _ -> Error "bad SET line (expected: <us> SET <key> <bytes>)")
    | [ us; "GET"; key ] -> (
      match int_of_string_opt us with
      | Some us when us >= 0 -> Ok (Some { at = Sim.Time.us us; cmd = Kv.Command.Get key })
      | _ -> Error "bad GET line (expected: <us> GET <key>)")
    | _ -> Error "unrecognized trace line"
  end

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
  let lines = String.split_on_char '\n' s in
  let rec go acc last_at lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse_line line with
      | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
      | Ok None -> go acc last_at (lineno + 1) rest
      | Ok (Some e) ->
        if Sim.Time.compare e.at last_at < 0 then
          Error (Printf.sprintf "line %d: timestamps must be non-decreasing" lineno)
        else go (e :: acc) e.at (lineno + 1) rest)
  in
  go [] Sim.Time.zero 1 lines

let save_file path entries =
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_string entries));
    Ok ()
  with Sys_error msg | Invalid_argument msg -> Error msg

let load_file path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_string (In_channel.input_all ic))
  with Sys_error msg -> Error msg

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

let gaps_of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go acc lineno = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | line :: rest ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go acc (lineno + 1) rest
      else begin
        match float_of_string_opt line with
        | Some us when Float.is_finite us && us >= 0.0 ->
          go (int_of_float (us *. 1e3) :: acc) (lineno + 1) rest
        | Some _ ->
          Error
            (Printf.sprintf "line %d: gap must be a finite non-negative number" lineno)
        | None ->
          Error
            (Printf.sprintf "line %d: bad gap line (expected one number, microseconds)"
               lineno)
      end
  in
  go [] 1 lines

let gaps_to_string gaps =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# e2ebatch gap trace: one inter-arrival gap per line, microseconds\n";
  Array.iter
    (fun g -> Buffer.add_string buf (Printf.sprintf "%.3f\n" (float_of_int g /. 1e3)))
    gaps;
  Buffer.contents buf

let load_gaps path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match gaps_of_string (In_channel.input_all ic) with
        | Ok gaps -> Ok gaps
        | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
  with Sys_error msg -> Error msg
