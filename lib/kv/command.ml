type t =
  | Ping
  | Echo of string
  | Set of { key : string; value : string; ttl : Sim.Time.span option }
  | Get of string
  | Del of string list
  | Exists of string list
  | Append of { key : string; value : string }
  | Strlen of string
  | Incr of string
  | Decr of string
  | Incrby of { key : string; delta : int }
  | Mset of (string * string) list
  | Mget of string list
  | Setnx of { key : string; value : string }
  | Getset of { key : string; value : string }
  | Expire of { key : string; seconds : int }
  | Ttl of string
  | Dbsize
  | Flushall
  | Keys of string

let name = function
  | Ping -> "PING"
  | Echo _ -> "ECHO"
  | Set _ -> "SET"
  | Get _ -> "GET"
  | Del _ -> "DEL"
  | Exists _ -> "EXISTS"
  | Append _ -> "APPEND"
  | Strlen _ -> "STRLEN"
  | Incr _ -> "INCR"
  | Decr _ -> "DECR"
  | Incrby _ -> "INCRBY"
  | Mset _ -> "MSET"
  | Mget _ -> "MGET"
  | Setnx _ -> "SETNX"
  | Getset _ -> "GETSET"
  | Expire _ -> "EXPIRE"
  | Ttl _ -> "TTL"
  | Dbsize -> "DBSIZE"
  | Flushall -> "FLUSHALL"
  | Keys _ -> "KEYS"

(* The arguments after the name, in wire order, folded without building
   a list: [f env] visits each in turn. *)
let rec fold_strings f env acc = function
  | [] -> acc
  | s :: rest -> fold_strings f env (f env acc s) rest

let rec fold_pairs f env acc = function
  | [] -> acc
  | (k, v) :: rest -> fold_pairs f env (f env (f env acc k) v) rest

let fold_args f env acc = function
  | Ping | Dbsize | Flushall -> acc
  | Echo s | Get s | Strlen s | Incr s | Decr s | Ttl s | Keys s -> f env acc s
  | Set { key; value; ttl = None }
  | Append { key; value }
  | Setnx { key; value }
  | Getset { key; value } ->
    f env (f env acc key) value
  | Set { key; value; ttl = Some span } ->
    let ms = string_of_int (Sim.Time.to_ns span / 1_000_000) in
    f env (f env (f env (f env acc key) value) "PX") ms
  | Incrby { key; delta = n } | Expire { key; seconds = n } ->
    f env (f env acc key) (string_of_int n)
  | Del keys | Exists keys | Mget keys -> fold_strings f env acc keys
  | Mset pairs -> fold_pairs f env acc pairs

let to_resp t =
  let bulks = fold_args (fun () acc s -> Resp.Bulk (Some s) :: acc) () [] t in
  Resp.Array (Some (Resp.Bulk (Some (name t)) :: List.rev bulks))

(* The number of bulk strings, name included. *)
let argc t = fold_args (fun () n _ -> n + 1) () 1 t

let encoded_length t ~argc =
  fold_args
    (fun () n s -> n + Resp.bulk_length s)
    ()
    (Resp.array_header_length argc + Resp.bulk_length (name t))
    t

let request_bytes t = encoded_length t ~argc:(argc t)

(* [Resp.encode (to_resp t)], written straight into one exact-size
   buffer. *)
let encode t =
  let argc = argc t in
  let b = Bytes.create (encoded_length t ~argc) in
  let pos = Resp.put_bulk b (Resp.put_array_header b 0 argc) (name t) in
  ignore (fold_args Resp.put_bulk b pos t);
  Bytes.unsafe_to_string b

(* A request carrying a shared-size argument (a large SET value) goes
   out as views through [Resp.encode_slices], the encoder replies use
   too; any other request is the one buffer [encode] writes. *)
let encode_slices t =
  if fold_args (fun () acc s -> acc || String.length s >= Resp.shared_bulk_min) () false t then
    Resp.encode_slices (to_resp t)
  else [ Tcp.Slice.of_string (encode t) ]

let wrong_args cmd = Result.Error (Printf.sprintf "wrong number of arguments for '%s'" cmd)

let parse_int_arg s ~what =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Result.Error (Printf.sprintf "%s is not an integer" what)

let is_bulk = function Resp.Bulk (Some _) -> true | _ -> false

(* Only called on items [of_resp] has checked with [is_bulk]. *)
let arg = function Resp.Bulk (Some s) -> s | _ -> invalid_arg "Command.arg"

let rec pairs_of = function
  | [] -> Ok []
  | k :: v :: rest -> Result.map (fun tail -> (arg k, arg v) :: tail) (pairs_of rest)
  | [ _ ] -> Result.Error "wrong number of arguments for 'MSET'"

(* Every name [dispatch] knows, SET and GET first since the workloads
   send them. *)
let names =
  [| "SET"; "GET"; "PING"; "ECHO"; "DEL"; "EXISTS"; "APPEND"; "STRLEN"; "INCR"; "DECR";
     "INCRBY"; "MSET"; "MGET"; "SETNX"; "GETSET"; "EXPIRE"; "TTL"; "DBSIZE"; "FLUSHALL";
     "KEYS" |]

(* [String.uppercase_ascii s = upper] without the copy.  The loops are
   top-level functions, not closures, so a lookup allocates nothing. *)
let rec same_from s upper i =
  i = String.length upper
  || (Char.uppercase_ascii s.[i] = upper.[i] && same_from s upper (i + 1))

let matches s upper = String.length s = String.length upper && same_from s upper 0

(* The known name [s] spells in any case (one of the literals above),
   else [s] upper-cased. *)
let rec canonical_from s i =
  if i = Array.length names then String.uppercase_ascii s
  else if matches s names.(i) then names.(i)
  else canonical_from s (i + 1)

let canonical s = canonical_from s 0

let dispatch cmd args =
  match (canonical cmd, args) with
  | "PING", [] -> Ok Ping
  | "PING", _ -> wrong_args "PING"
  | "ECHO", [ s ] -> Ok (Echo (arg s))
  | "ECHO", _ -> wrong_args "ECHO"
  | "SET", [ key; value ] -> Ok (Set { key = arg key; value = arg value; ttl = None })
  | "SET", [ key; value; px; ms ] when matches (arg px) "PX" ->
    Result.map
      (fun ms -> Set { key = arg key; value = arg value; ttl = Some (Sim.Time.ms ms) })
      (parse_int_arg (arg ms) ~what:"PX value")
  | "SET", [ key; value; ex; seconds ] when matches (arg ex) "EX" ->
    Result.map
      (fun s -> Set { key = arg key; value = arg value; ttl = Some (Sim.Time.sec s) })
      (parse_int_arg (arg seconds) ~what:"EX value")
  | "SET", _ -> wrong_args "SET"
  | "GET", [ key ] -> Ok (Get (arg key))
  | "GET", _ -> wrong_args "GET"
  | "DEL", (_ :: _ as keys) -> Ok (Del (List.map arg keys))
  | "DEL", [] -> wrong_args "DEL"
  | "EXISTS", (_ :: _ as keys) -> Ok (Exists (List.map arg keys))
  | "EXISTS", [] -> wrong_args "EXISTS"
  | "APPEND", [ key; value ] -> Ok (Append { key = arg key; value = arg value })
  | "APPEND", _ -> wrong_args "APPEND"
  | "STRLEN", [ key ] -> Ok (Strlen (arg key))
  | "STRLEN", _ -> wrong_args "STRLEN"
  | "INCR", [ key ] -> Ok (Incr (arg key))
  | "INCR", _ -> wrong_args "INCR"
  | "DECR", [ key ] -> Ok (Decr (arg key))
  | "DECR", _ -> wrong_args "DECR"
  | "INCRBY", [ key; delta ] ->
    Result.map
      (fun delta -> Incrby { key = arg key; delta })
      (parse_int_arg (arg delta) ~what:"delta")
  | "INCRBY", _ -> wrong_args "INCRBY"
  | "MSET", (_ :: _ as rest) -> Result.map (fun pairs -> Mset pairs) (pairs_of rest)
  | "MSET", [] -> wrong_args "MSET"
  | "MGET", (_ :: _ as keys) -> Ok (Mget (List.map arg keys))
  | "MGET", [] -> wrong_args "MGET"
  | "SETNX", [ key; value ] -> Ok (Setnx { key = arg key; value = arg value })
  | "SETNX", _ -> wrong_args "SETNX"
  | "GETSET", [ key; value ] -> Ok (Getset { key = arg key; value = arg value })
  | "GETSET", _ -> wrong_args "GETSET"
  | "EXPIRE", [ key; seconds ] ->
    Result.map
      (fun seconds -> Expire { key = arg key; seconds })
      (parse_int_arg (arg seconds) ~what:"seconds")
  | "EXPIRE", _ -> wrong_args "EXPIRE"
  | "TTL", [ key ] -> Ok (Ttl (arg key))
  | "TTL", _ -> wrong_args "TTL"
  | "DBSIZE", [] -> Ok Dbsize
  | "DBSIZE", _ -> wrong_args "DBSIZE"
  | "FLUSHALL", [] -> Ok Flushall
  | "FLUSHALL", _ -> wrong_args "FLUSHALL"
  | "KEYS", [ pattern ] -> Ok (Keys (arg pattern))
  | "KEYS", _ -> wrong_args "KEYS"
  | other, _ -> Result.Error (Printf.sprintf "unknown command '%s'" other)

let of_resp = function
  | Resp.Array (Some []) -> Result.Error "empty command"
  | Resp.Array (Some (Resp.Bulk (Some cmd) :: args as items)) when List.for_all is_bulk items
    ->
    dispatch cmd args
  | Resp.Array (Some _) -> Result.Error "command arguments must be bulk strings"
  | _ -> Result.Error "command must be an array of bulk strings"

let ok = Resp.Simple "OK"

let execute store ~now t =
  match t with
  | Ping -> Resp.Simple "PONG"
  | Echo s -> Resp.Bulk (Some s)
  | Set { key; value; ttl } ->
    Store.set store ~now ?ttl key value;
    ok
  | Get key -> Resp.Bulk (Store.get store ~now key)
  | Del keys -> Resp.Integer (Store.delete store ~now keys)
  | Exists keys -> Resp.Integer (Store.exists store ~now keys)
  | Append { key; value } -> Resp.Integer (Store.append store ~now key value)
  | Strlen key -> Resp.Integer (Store.strlen store ~now key)
  | Incr key -> (
    match Store.incr_by store ~now key 1 with
    | Ok v -> Resp.Integer v
    | Result.Error e -> Resp.Error ("ERR " ^ e))
  | Decr key -> (
    match Store.incr_by store ~now key (-1) with
    | Ok v -> Resp.Integer v
    | Result.Error e -> Resp.Error ("ERR " ^ e))
  | Incrby { key; delta } -> (
    match Store.incr_by store ~now key delta with
    | Ok v -> Resp.Integer v
    | Result.Error e -> Resp.Error ("ERR " ^ e))
  | Mset pairs ->
    List.iter (fun (k, v) -> Store.set store ~now k v) pairs;
    ok
  | Mget keys -> Resp.Array (Some (List.map (fun k -> Resp.Bulk (Store.get store ~now k)) keys))
  | Setnx { key; value } -> Resp.Integer (if Store.setnx store ~now key value then 1 else 0)
  | Getset { key; value } -> Resp.Bulk (Store.getset store ~now key value)
  | Expire { key; seconds } ->
    Resp.Integer (if Store.expire store ~now key ~ttl:(Sim.Time.sec seconds) then 1 else 0)
  | Ttl key -> (
    match Store.ttl store ~now key with
    | `Missing -> Resp.Integer (-2)
    | `No_ttl -> Resp.Integer (-1)
    | `Ttl span -> Resp.Integer (Sim.Time.to_ns span / 1_000_000_000))
  | Dbsize -> Resp.Integer (Store.size store ~now)
  | Flushall ->
    Store.flush store;
    ok
  | Keys pattern ->
    Resp.Array
      (Some
         (List.map (fun k -> Resp.Bulk (Some k)) (Store.keys_matching store ~now ~pattern)))
