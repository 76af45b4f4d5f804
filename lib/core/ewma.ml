type t = { alpha : float; mutable current : float option }

let create ~alpha =
  if alpha <= 0.0 || alpha > 1.0 then invalid_arg "Ewma.create: alpha must be in (0,1]";
  { alpha; current = None }

let update t x =
  let v =
    match t.current with
    | None -> x
    | Some y -> y +. (t.alpha *. (x -. y))
  in
  t.current <- Some v;
  v

let value t = t.current

let value_or t ~default = Option.value t.current ~default

let reset t = t.current <- None

module Irregular = struct
  type nonrec t = {
    tau : float;
    mutable current : float option;
    mutable last_at : Sim.Time.t;
  }

  let create ~tau =
    if tau <= 0 then invalid_arg "Ewma.Irregular.create: tau must be positive";
    { tau = float_of_int tau; current = None; last_at = Sim.Time.zero }

  let update t ~at x =
    let v =
      match t.current with
      | None -> x
      | Some y ->
        let dt = float_of_int (Sim.Time.diff at t.last_at) in
        let dt = Float.max dt 0.0 in
        let alpha = 1.0 -. exp (-.dt /. t.tau) in
        y +. (alpha *. (x -. y))
    in
    t.current <- Some v;
    t.last_at <- at;
    v

  let value t = t.current
end
