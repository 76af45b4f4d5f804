type t = {
  warmup_until : Sim.Time.t;
  summary : Sim.Stats.Summary.t;
  histogram : Sim.Stats.Histogram.t;
  mutable samples_us : float list;  (* reversed; for exact SLO fractions *)
}

let create ~warmup_until () =
  {
    warmup_until;
    summary = Sim.Stats.Summary.create ();
    histogram = Sim.Stats.Histogram.create ();
    samples_us = [];
  }

let record t ~at ~latency =
  if Sim.Time.compare at t.warmup_until > 0 then begin
    let us = Sim.Time.to_us latency in
    Sim.Stats.Summary.add t.summary us;
    Sim.Stats.Histogram.add t.histogram us;
    t.samples_us <- us :: t.samples_us
  end

let count t = Sim.Stats.Summary.count t.summary
let mean_us t = Sim.Stats.Summary.mean t.summary
let p50_us t = Sim.Stats.Histogram.percentile t.histogram 50.0
let p99_us t = Sim.Stats.Histogram.percentile t.histogram 99.0
let max_us t = if count t = 0 then 0.0 else Sim.Stats.Summary.max t.summary

let under_slo_fraction t ~slo_us =
  let n = count t in
  if n = 0 then 1.0
  else begin
    let under = List.length (List.filter (fun us -> us <= slo_us) t.samples_us) in
    float_of_int under /. float_of_int n
  end

let summary t = t.summary
let histogram t = t.histogram
