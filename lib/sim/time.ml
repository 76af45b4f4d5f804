type t = int
type span = int

let zero = 0

let ns x = x
let us x = x * 1_000
let ms x = x * 1_000_000
let sec x = x * 1_000_000_000

let of_us_float x = int_of_float (Float.round (x *. 1e3))

let to_ns t = t
let to_us t = float_of_int t /. 1e3
let to_ms t = float_of_int t /. 1e6
let to_sec t = float_of_int t /. 1e9

let add t d = t + d
let diff a b = a - b

let compare = Int.compare
let min = Stdlib.min
let max = Stdlib.max

let pp ppf t =
  let abs = Stdlib.abs t in
  if abs < 1_000 then Format.fprintf ppf "%dns" t
  else if abs < 1_000_000 then Format.fprintf ppf "%.2fus" (to_us t)
  else if abs < 1_000_000_000 then Format.fprintf ppf "%.2fms" (to_ms t)
  else Format.fprintf ppf "%.3fs" (to_sec t)

let to_string t = Format.asprintf "%a" pp t
