(* Decision ledger: every toggler/AIMD decision of one control group
   becomes a typed [Decision_made] trace event, and the realized
   latency over its tenure (fed by [completion]) closes it as a
   [Decision_outcome] when the next decision lands.  The last decision
   of a run stays open — explain tooling treats it as "tenure still
   running at exit".

   [completion] is on the request hot path: the [Trace.enabled] check
   comes before any float conversion, so with tracing off the call is
   branch-only (enforced by [make alloc-gate]).  The latency arrives
   as an integer [Sim.Time.span] for the same reason — a float
   argument would box even on the disabled path. *)

type t = {
  trace : Sim.Trace.t;
  group : string;
  mutable next : int; (* sequence number of the next decision *)
  mutable open_ : bool; (* a decision's tenure is accumulating *)
  histo : Sim.Histo.t; (* tenure latencies, microseconds *)
}

let create ~trace ~group = { trace; group; next = 0; open_ = false; histo = Sim.Histo.create () }

let group t = t.group

let completion t ~latency =
  if Sim.Trace.enabled t.trace && t.open_ then
    Sim.Histo.add t.histo (Sim.Time.to_us latency)

let close_tenure t ~at =
  if t.open_ then begin
    let n = Sim.Histo.count t.histo in
    let mean_us = match Sim.Histo.mean t.histo with Some m -> m | None -> 0.0 in
    let p99_us =
      match Sim.Histo.quantile t.histo 99.0 with Some p -> p | None -> 0.0
    in
    Sim.Trace.event t.trace ~at ~id:t.group
      (Sim.Trace.Decision_outcome { decision = t.next - 1; mean_us; p99_us; n });
    Sim.Histo.reset t.histo;
    t.open_ <- false
  end

let decision t ~at ?on_us ?off_us ~mode ~action ~reason ~frozen ~stale_us () =
  if Sim.Trace.enabled t.trace then begin
    close_tenure t ~at;
    Sim.Trace.event t.trace ~at ~id:t.group
      (Sim.Trace.Decision_made
         { decision = t.next; on_us; off_us; mode; action; reason; frozen; stale_us });
    t.next <- t.next + 1;
    t.open_ <- true
  end
