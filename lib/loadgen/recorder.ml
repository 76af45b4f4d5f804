type t = {
  warmup_until : Sim.Time.t;
  summary : Sim.Stats.Summary.t;
  histogram : Sim.Stats.Histogram.t;
  mutable samples_us : Float.Array.t;
      (* unboxed; the first [count t] slots hold samples, for exact SLO
         fractions *)
}

let create ~warmup_until () =
  {
    warmup_until;
    summary = Sim.Stats.Summary.create ();
    histogram = Sim.Stats.Histogram.create ();
    samples_us = Float.Array.create 0;
  }

let count t = Sim.Stats.Summary.count t.summary

(* Unboxed and doubling: one word per sample, amortised. *)
let push t us =
  let n = count t in
  if n = Float.Array.length t.samples_us then begin
    let grown = Float.Array.create (Stdlib.max 16 (2 * n)) in
    Float.Array.blit t.samples_us 0 grown 0 n;
    t.samples_us <- grown
  end;
  Float.Array.set t.samples_us n us

let record t ~at ~latency =
  if Sim.Time.compare at t.warmup_until > 0 then begin
    let us = Sim.Time.to_us latency in
    push t us;
    Sim.Stats.Summary.add t.summary us;
    Sim.Stats.Histogram.add t.histogram us
  end

let mean_us t = Sim.Stats.Summary.mean t.summary
let p50_us t = Sim.Stats.Histogram.percentile t.histogram 50.0
let p99_us t = Sim.Stats.Histogram.percentile t.histogram 99.0
let max_us t = if count t = 0 then 0.0 else Sim.Stats.Summary.max t.summary

let under_slo_fraction t ~slo_us =
  let n = count t in
  if n = 0 then 1.0
  else begin
    let under = ref 0 in
    for i = 0 to n - 1 do
      if Float.Array.get t.samples_us i <= slo_us then incr under
    done;
    float_of_int !under /. float_of_int n
  end
