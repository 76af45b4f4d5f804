type t = {
  set_ratio : float;
  key_size : int;
  value_size : int;
  n_keys : int;
  zipf_theta : float;
}

let paper_set_only =
  { set_ratio = 1.0; key_size = 16; value_size = 16 * 1024; n_keys = 1024; zipf_theta = 0.0 }

let paper_mixed = { paper_set_only with set_ratio = 0.95 }

let small_requests = { paper_set_only with value_size = 64 }

let validate t =
  if t.set_ratio < 0.0 || t.set_ratio > 1.0 then Error "set_ratio must be in [0,1]"
  else if t.key_size < 8 then Error "key_size must be at least 8"
  else if t.value_size < 1 then Error "value_size must be positive"
  else if t.n_keys < 1 then Error "n_keys must be positive"
  else if t.zipf_theta < 0.0 then Error "zipf_theta must be non-negative"
  else Ok t

(* Fixed-width keys: "k:0000000042" padded to key_size. *)
let format_key t i =
  let base = Printf.sprintf "k:%010d" i in
  if String.length base >= t.key_size then String.sub base 0 t.key_size
  else base ^ String.make (t.key_size - String.length base) 'x'

(* Keys and the value payload are built once and shared.  Request
   contents do not matter, only their size, so one value per size
   serves every request, and each workload shape's keys are formatted
   once, not per request.  The caches are domain-local so parallel
   sweeps (Par.Pool) never race on them; each domain builds each entry
   at most once.  A run uses a few shapes, so a scan of a short list
   finds an entry without hashing. *)
type cache = {
  mutable keys : (int * int * string array) list;  (* key_size, n_keys, keys *)
  mutable values : (int * string) list;  (* value_size, value *)
}

let cache = Domain.DLS.new_key (fun () -> { keys = []; values = [] })

let rec find_keys t = function
  | (key_size, n_keys, keys) :: rest ->
    if key_size = t.key_size && n_keys = t.n_keys then keys else find_keys t rest
  | [] -> raise Not_found

let rec find_value t = function
  | (value_size, v) :: rest -> if value_size = t.value_size then v else find_value t rest
  | [] -> raise Not_found

let keys_of t =
  let c = Domain.DLS.get cache in
  match find_keys t c.keys with
  | keys -> keys
  | exception Not_found ->
    let keys = Array.init t.n_keys (format_key t) in
    c.keys <- (t.key_size, t.n_keys, keys) :: c.keys;
    keys

let value_of t =
  let c = Domain.DLS.get cache in
  match find_value t c.values with
  | v -> v
  | exception Not_found ->
    let v = String.make t.value_size 'v' in
    c.values <- (t.value_size, v) :: c.values;
    v

let next_command t ~rng =
  let i = Sim.Rng.zipf rng ~n:t.n_keys ~theta:t.zipf_theta in
  let key = (keys_of t).(i) in
  if Sim.Rng.float rng < t.set_ratio then
    Kv.Command.Set { key; value = value_of t; ttl = None }
  else Kv.Command.Get key

let prepopulate t store ~now =
  let value = value_of t in
  Array.iter (fun key -> Kv.Store.set store ~now key value) (keys_of t)

let request_bytes t kind =
  let key = (keys_of t).(0) in
  match kind with
  | `Set -> Kv.Command.request_bytes (Kv.Command.Set { key; value = value_of t; ttl = None })
  | `Get -> Kv.Command.request_bytes (Kv.Command.Get key)

let response_bytes t kind =
  match kind with
  | `Set -> Kv.Resp.encoded_length (Kv.Resp.Simple "OK")
  | `Get -> Kv.Resp.encoded_length (Kv.Resp.Bulk (Some (value_of t)))

let describe t =
  Printf.sprintf "%.0f%% SET / %.0f%% GET, %dB keys, %dB values, %d keys (theta=%.2f)"
    (t.set_ratio *. 100.0)
    ((1.0 -. t.set_ratio) *. 100.0)
    t.key_size t.value_size t.n_keys t.zipf_theta
