(* The state lives in an 8-byte buffer, not a [mutable int64] field, so
   a draw updates it in place instead of boxing a new int64. *)
type t = { state : Bytes.t; mutable zipf_cache : (int * float * float array) option }

(* SplitMix64 (Steele, Lea, Flood 2014). *)
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state z =
  let state = Bytes.create 8 in
  Bytes.set_int64_ne state 0 z;
  { state; zipf_cache = None }

let create ~seed = of_state (Int64.of_int seed)

let[@inline] bits64 t =
  let z = Int64.add (Bytes.get_int64_ne t.state 0) golden_gamma in
  Bytes.set_int64_ne t.state 0 z;
  mix z

let split t = of_state (mix (bits64 t))

let float t =
  (* 53 high-quality bits into [0,1). *)
  let x = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float x *. (1.0 /. 9007199254740992.0)

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's native int; modulo bias is
     negligible for bounds far below 2^62. *)
  let x = Int64.to_int (Int64.logand (bits64 t) 0x3FFF_FFFF_FFFF_FFFFL) in
  x mod bound

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. float t in
  -.mean *. log u

let normal t ~mu ~sigma =
  let u1 = 1.0 -. float t and u2 = float t in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let pareto t ~scale ~shape =
  if scale <= 0.0 || shape <= 0.0 then invalid_arg "Rng.pareto: bad parameters";
  let u = 1.0 -. float t in
  scale /. (u ** (1.0 /. shape))

(* Zipf by inverse transform over precomputed cumulative weights.  The
   table is cached per (n, theta) since workloads draw many ranks from a
   fixed distribution. *)
let zipf t ~n ~theta =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  if theta < 0.0 then invalid_arg "Rng.zipf: theta must be non-negative";
  let cdf =
    match t.zipf_cache with
    | Some (n', theta', cdf) when n' = n && theta' = theta -> cdf
    | _ ->
      let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
      let acc = ref 0.0 in
      let cdf =
        Array.map
          (fun x ->
            acc := !acc +. x;
            !acc)
          w
      in
      let total = cdf.(n - 1) in
      let cdf = Array.map (fun x -> x /. total) cdf in
      t.zipf_cache <- Some (n, theta, cdf);
      cdf
  in
  let u = float t in
  (* Binary search for the first index with cdf.(i) >= u. *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo
