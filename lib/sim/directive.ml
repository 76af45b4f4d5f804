type syntax = Directives | Records

let fields syntax line =
  let nonempty = List.filter (fun f -> f <> "") in
  match syntax with
  | Directives ->
    let line =
      match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line
    in
    nonempty (List.concat_map (String.split_on_char '\t') (String.split_on_char ' ' line))
  | Records ->
    let line = String.trim line in
    if line = "" || line.[0] = '#' then [] else nonempty (String.split_on_char ' ' line)

let fold syntax ?what f init text =
  let located n msg =
    match what with
    | Some w -> Printf.sprintf "%s line %d: %s" w n msg
    | None -> Printf.sprintf "line %d: %s" n msg
  in
  let rec go acc n = function
    | [] -> Ok acc
    | line :: rest -> (
      match fields syntax line with
      | [] -> go acc (n + 1) rest
      | fs -> (
        match f acc fs with
        | Ok acc -> go acc (n + 1) rest
        | Error msg -> Error (located n msg)))
  in
  go init 1 (String.split_on_char '\n' text)

let file parse path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> Result.map_error (fun msg -> path ^ ": " ^ msg) (parse text)
  | exception Sys_error msg -> Error msg

type pairs = (string * string) list

let ( let* ) = Result.bind

let pairs ~keys fields =
  List.fold_left
    (fun acc field ->
      let* acc = acc in
      match String.index_opt field '=' with
      | None -> Error (Printf.sprintf "expected key=value, got %S" field)
      | Some i ->
        let k = String.sub field 0 i in
        if not (List.mem k keys) then
          Error
            (Printf.sprintf "unknown key %S (accepted: %s)" k (String.concat ", " keys))
        else if List.mem_assoc k acc then Error (Printf.sprintf "key %S given twice" k)
        else Ok ((k, String.sub field (i + 1) (String.length field - i - 1)) :: acc))
    (Ok []) fields
  |> Result.map List.rev

let value key read v = Result.map_error (fun msg -> key ^ ": " ^ msg) (read v)

let get pairs key read ~default =
  match List.assoc_opt key pairs with None -> Ok default | Some v -> value key read v

let need pairs key read =
  match List.assoc_opt key pairs with
  | None -> Error (Printf.sprintf "missing required key %S" key)
  | Some v -> value key read v

(* Time's range: a span is an OCaml int of nanoseconds, below 2^62 in
   magnitude. *)
let overflows s = Error (Printf.sprintf "%S overflows the simulated clock" s)

let number ?unit s =
  match (float_of_string_opt s, unit) with
  | Some v, Some u when Float.is_finite v && Float.abs (v *. float_of_int u) >= 0x1p62 ->
    overflows s
  | Some v, _ when Float.is_finite v -> Ok v
  | _ -> Error (Printf.sprintf "not a finite number: %S" s)

let integer ?unit s =
  match (int_of_string_opt s, unit) with
  | None, _ -> Error (Printf.sprintf "not an integer: %S" s)
  | Some i, Some u when i > max_int / u || i < -(max_int / u) -> overflows s
  | Some i, _ -> Ok i

let list read s =
  List.fold_left
    (fun acc item ->
      let* acc = acc in
      if item = "" then Error (Printf.sprintf "empty item in %S" s)
      else
        let* v = read item in
        Ok (v :: acc))
    (Ok []) (String.split_on_char ',' s)
  |> Result.map List.rev
