(* A trace sink owned by the benchmark: it counts records by kind, so
   the traced run yields the per-request operation counts the layer
   table multiplies unit costs by, and it keeps a sample of records to
   replay through the trace writer. *)

type t = {
  mutable records : int;
  mutable tx_segments : int;
  mutable rx_segments : int;
  mutable rx_bytes : int;  (** fresh payload bytes over [rx_segments] *)
  mutable acks : int;
  mutable nagle_holds : int;
  mutable delack_cancels : int;
  mutable shares : int;
  mutable estimates : int;
  mutable decisions : int;
  mutable sample : Sim.Trace.record list;  (** newest first *)
  mutable sampled : int;
}

let sample_size = 4096

let create () =
  {
    records = 0;
    tx_segments = 0;
    rx_segments = 0;
    rx_bytes = 0;
    acks = 0;
    nagle_holds = 0;
    delack_cancels = 0;
    shares = 0;
    estimates = 0;
    decisions = 0;
    sample = [];
    sampled = 0;
  }

let add t (r : Sim.Trace.record) =
  t.records <- t.records + 1;
  if t.sampled < sample_size then begin
    t.sample <- r :: t.sample;
    t.sampled <- t.sampled + 1
  end;
  match r.event with
  | Segment_sent _ -> t.tx_segments <- t.tx_segments + 1
  | Segment_received { fresh; _ } ->
    t.rx_segments <- t.rx_segments + 1;
    t.rx_bytes <- t.rx_bytes + fresh
  | Ack_received _ -> t.acks <- t.acks + 1
  | Nagle_hold _ -> t.nagle_holds <- t.nagle_holds + 1
  | Delack_cancel _ -> t.delack_cancels <- t.delack_cancels + 1
  | Share_ingested _ -> t.shares <- t.shares + 1
  | Estimate_computed _ -> t.estimates <- t.estimates + 1
  | Decision_made _ -> t.decisions <- t.decisions + 1
  | _ -> ()

let sample t = List.rev t.sample

(* Mean fresh payload bytes per received segment (at least 1). *)
let bytes_per_rx_segment t =
  if t.rx_segments = 0 then 1.0
  else Float.max 1.0 (float_of_int t.rx_bytes /. float_of_int t.rx_segments)
