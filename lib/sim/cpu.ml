type t = {
  engine : Engine.t;
  mutable free_at : Time.t;
  mutable busy : Time.span;
}

let create engine = { engine; free_at = Time.zero; busy = 0 }

let call t ~cost fn a b =
  if cost < 0 then invalid_arg "Cpu: negative cost";
  let now = Engine.now t.engine in
  let start = Time.max now t.free_at in
  let finish = Time.add start cost in
  t.free_at <- finish;
  t.busy <- t.busy + cost;
  Engine.call_at t.engine ~at:finish fn a b

let run_thunk k () = k ()
let run t ~cost k = call t ~cost run_thunk k ()

let busy_ns t = t.busy

let utilization t ~over =
  if over <= 0 then 0.0 else float_of_int t.busy /. float_of_int over
