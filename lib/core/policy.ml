type t =
  | Prefer_latency
  | Prefer_throughput
  | Throughput_under_slo of { slo_ns : float }

type outcome = { latency_ns : float; throughput : float }

let default_slo_ns = 500_000.0

let better t a b =
  match t with
  | Prefer_latency -> a.latency_ns < b.latency_ns
  | Prefer_throughput -> a.throughput > b.throughput
  | Throughput_under_slo { slo_ns } -> (
    match (a.latency_ns <= slo_ns, b.latency_ns <= slo_ns) with
    | true, true ->
      (* With both compliant, throughput decides — but a fixed offered
         load makes throughputs near-identical, so within a 10% band the
         lower latency breaks the tie (headroom under the SLO). *)
      let close =
        Float.abs (a.throughput -. b.throughput)
        <= 0.10 *. Float.max a.throughput b.throughput
      in
      if close then a.latency_ns < b.latency_ns else a.throughput > b.throughput
    | true, false -> true
    | false, true -> false
    | false, false -> a.latency_ns < b.latency_ns)

let to_string = function
  | Prefer_latency -> "latency"
  | Prefer_throughput -> "throughput"
  | Throughput_under_slo { slo_ns } ->
    Printf.sprintf "slo:%.0f" (slo_ns /. 1e3)

let of_string s =
  match s with
  | "latency" -> Ok Prefer_latency
  | "throughput" -> Ok Prefer_throughput
  | "slo" -> Ok (Throughput_under_slo { slo_ns = default_slo_ns })
  | s when String.length s > 4 && String.sub s 0 4 = "slo:" -> (
    let rest = String.sub s 4 (String.length s - 4) in
    match Sim.Directive.number ~unit:(Sim.Time.us 1) rest with
    | Ok us when us > 0.0 -> Ok (Throughput_under_slo { slo_ns = us *. 1e3 })
    | Ok _ | Error _ -> Error (Printf.sprintf "invalid SLO microseconds: %S" rest))
  | s -> Error (Printf.sprintf "unknown policy %S (expected latency|throughput|slo[:us])" s)
