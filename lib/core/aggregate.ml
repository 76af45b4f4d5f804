type input = { latency_ns : float option; throughput : float }

type t = { latency_ns : float option; throughput : float; flows : int }

(* Float-only, so every field is stored unboxed and overwritten in
   place. *)
type acc = {
  mutable last_latency_ns : float;
  mutable last_local_ns : float;
  mutable last_remote_ns : float;
  mutable last_throughput : float;
  mutable last_window_ns : float;
  mutable estimates : float;
  mutable flows : float;
  mutable weighted : float;
  mutable weight : float;
  mutable throughput : float;
}

let reset a =
  a.last_latency_ns <- Float.nan;
  a.last_local_ns <- Float.nan;
  a.last_remote_ns <- Float.nan;
  a.last_throughput <- 0.0;
  a.last_window_ns <- 0.0;
  a.estimates <- 0.0;
  a.flows <- 0.0;
  a.weighted <- 0.0;
  a.weight <- 0.0;
  a.throughput <- 0.0

let acc () =
  let a =
    {
      last_latency_ns = 0.0;
      last_local_ns = 0.0;
      last_remote_ns = 0.0;
      last_throughput = 0.0;
      last_window_ns = 0.0;
      estimates = 0.0;
      flows = 0.0;
      weighted = 0.0;
      weight = 0.0;
      throughput = 0.0;
    }
  in
  reset a;
  a

let add_last a =
  a.estimates <- a.estimates +. 1.0;
  a.throughput <- a.throughput +. a.last_throughput;
  let l = a.last_latency_ns in
  if a.last_throughput > 0.0 && not (Float.is_nan l) then begin
    a.weighted <- a.weighted +. (l *. a.last_throughput);
    a.weight <- a.weight +. a.last_throughput;
    a.flows <- a.flows +. 1.0
  end

let copy_last ~src a =
  a.last_latency_ns <- src.last_latency_ns;
  a.last_local_ns <- src.last_local_ns;
  a.last_remote_ns <- src.last_remote_ns;
  a.last_throughput <- src.last_throughput;
  a.last_window_ns <- src.last_window_ns

let result a : t =
  {
    latency_ns = (if a.weight > 0.0 then Some (a.weighted /. a.weight) else None);
    throughput = a.throughput;
    flows = int_of_float a.flows;
  }

let known x = if Float.is_nan x then None else Some x

let combine (inputs : input list) =
  let a = acc () in
  List.iter
    (fun (i : input) ->
      a.last_latency_ns <- Option.value i.latency_ns ~default:Float.nan;
      a.last_throughput <- i.throughput;
      add_last a)
    inputs;
  result a

let max_min_ratio xs =
  match xs with
  | [] -> None
  | x :: rest ->
    let lo, hi = List.fold_left (fun (lo, hi) x -> (Float.min lo x, Float.max hi x)) (x, x) rest in
    if lo > 0.0 then Some (hi /. lo) else None

let jain xs =
  let n = List.length xs in
  if n = 0 then None
  else
    let sum = List.fold_left ( +. ) 0.0 xs in
    let sumsq = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
    if sumsq <= 0.0 then None
    else Some (sum *. sum /. (float_of_int n *. sumsq))
