type t = int

let modulus = 1 lsl 32
let mask = modulus - 1

let of_int x = x land mask
let to_int x = x

let add a n = (a + n) land mask
let sub a b = (a - b) land mask

(* Serial-number comparison: interpret the modular distance as a signed
   31-bit quantity. *)
let compare a b =
  if a = b then 0
  else begin
    let d = sub b a in
    if d < 1 lsl 31 then -1 else 1
  end

let lt a b = compare a b < 0
let leq a b = compare a b <= 0

let between x ~low ~high =
  let width = sub high low in
  sub x low < width
