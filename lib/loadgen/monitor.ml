(* Trace-reading monitors: create, feed one record at a time, read out.
   [fold_runs] is the one reader of a trace file behind them. *)

let fold_runs path ~make ~feed =
  let runs = Table.create () and skipped = ref 0 in
  match
    Sim.Trace.fold_file path
      ~unknown:(fun _ -> incr skipped)
      ~init:()
      ~f:(fun () run r -> feed (Table.find_or_add runs (Option.value run ~default:"") make) r)
  with
  | Error _ as e -> e
  | Ok () -> (
    match Table.to_list runs with
    | [] -> Error (Printf.sprintf "%s: no trace records" path)
    | runs -> Ok (runs, !skipped))

module Spans = struct
  type t = {
    stream : Sim.Span.Streaming.t;
    mutable events : int;
    mutable spans_rev : Sim.Span.span list;
    mutable req_at : float array;  (* completion us, file order *)
    mutable req_lat : float array;  (* latency us *)
    mutable n_reqs : int;
    mutable ests_rev : (float * float * float) list;  (* at, window, est us *)
    mutable audits_rev : Sim.Trace.record list;
  }

  let create () =
    { stream = Sim.Span.Streaming.create (); events = 0; spans_rev = []; req_at = [||];
      req_lat = [||]; n_reqs = 0; ests_rev = []; audits_rev = [] }

  let feed t (r : Sim.Trace.record) =
    t.events <- t.events + 1;
    (match r.event with
    | Sim.Trace.Request_done { latency_us } ->
      t.req_at <- Observe.push t.req_at t.n_reqs (Sim.Time.to_us r.at);
      t.req_lat <- Observe.push t.req_lat t.n_reqs latency_us;
      t.n_reqs <- t.n_reqs + 1
    | Sim.Trace.Estimate_computed { latency_us = Some est_us; window_us; _ } ->
      t.ests_rev <- (Sim.Time.to_us r.at, window_us, est_us) :: t.ests_rev
    | Sim.Trace.Audit_window _ -> t.audits_rev <- r :: t.audits_rev
    | _ -> ());
    match Sim.Span.Streaming.feed t.stream r with
    | Some s -> t.spans_rev <- s :: t.spans_rev
    | None -> ()

  let events t = t.events
  let requests t = t.n_reqs
  let spans t = List.rev t.spans_rev
  let incomplete t = Sim.Span.Streaming.incomplete t.stream
  let audits t = List.rev t.audits_rev

  let e2e_us t q =
    let a = Array.of_list (List.map Sim.Span.latency_us t.spans_rev) in
    Array.sort Float.compare a;
    if a = [||] then 0.0 else Sim.Span.rank a q

  let residual_pairs t =
    List.filter_map
      (fun (at_us, window_us, est_us) ->
        let i = Observe.first_after t.req_at t.n_reqs (at_us -. window_us) in
        let j = Observe.first_after t.req_at t.n_reqs at_us in
        if j <= i then None
        else begin
          let sum = ref 0.0 in
          for k = i to j - 1 do
            sum := !sum +. t.req_lat.(k)
          done;
          Some { E2e.Residual.at_us; window_us; est_us; truth_us = !sum /. float_of_int (j - i) }
        end)
      (List.rev t.ests_rev)

  let residual t = E2e.Residual.summary_of_pairs (residual_pairs t)
end

module Run = struct
  type t = {
    limit : int;
    mutable t0 : Sim.Time.t;
    mutable t1 : Sim.Time.t;
    conns : (string, (string * int ref) list ref) Table.t;
        (* per id, its tags in first-appearance order: an id has a
           dozen tags or so, and a list is cheaper than a table per
           id on a 10k-connection trace *)
    mutable timeline_rev : Sim.Trace.record list;  (* the first [limit] *)
    all : Spans.t;
    tenants : (string, Spans.t) Table.t;
    shards : (int, Spans.t) Table.t;
  }

  let create ~limit =
    { limit; t0 = max_int; t1 = 0; conns = Table.create (); timeline_rev = [];
      all = Spans.create (); tenants = Table.create (); shards = Table.create () }

  let feed t (r : Sim.Trace.record) =
    t.t0 <- Sim.Time.min t.t0 r.at;
    t.t1 <- Sim.Time.max t.t1 r.at;
    let tags = Table.find_or_add t.conns (if r.id = "" then "-" else r.id) (fun _ -> ref []) in
    let tag = Sim.Trace.tag r in
    (match List.assoc_opt tag !tags with
    | Some c -> incr c
    | None -> tags := !tags @ [ (tag, ref 1) ]);
    if Spans.events t.all < t.limit then t.timeline_rev <- r :: t.timeline_rev;
    Spans.feed t.all r;
    (match Sim.Trace.tenant_of_id r.id with
    | Some tenant -> Spans.feed (Table.find_or_add t.tenants tenant (fun _ -> Spans.create ())) r
    | None -> ());
    match Sim.Trace.shard_of_id r.id with
    | Some shard -> Spans.feed (Table.find_or_add t.shards shard (fun _ -> Spans.create ())) r
    | None -> ()

  let range t = (t.t0, t.t1)

  let conns t =
    List.map
      (fun (id, tags) -> (id, List.map (fun (tag, c) -> (tag, !c)) !tags))
      (Table.to_list t.conns)

  let timeline t = List.rev t.timeline_rev
  let all t = t.all
  let tenants t = Table.to_list t.tenants
  let shards t = List.sort (fun (a, _) (b, _) -> Int.compare a b) (Table.to_list t.shards)
end

module Decisions = struct
  type tenure = Open | Idle | Done of { mean_us : float; p99_us : float; n : int }

  type chain = {
    mutable made_rev : Sim.Trace.record list;
    outcomes : (int, tenure) Hashtbl.t;  (* decision -> its tenure *)
  }

  type t = (string, chain) Table.t

  let create () = Table.create ()

  let chain t id = Table.find_or_add t id (fun _ -> { made_rev = []; outcomes = Hashtbl.create 16 })

  let feed t (r : Sim.Trace.record) =
    match r.event with
    | Sim.Trace.Decision_made _ ->
      let c = chain t r.id in
      c.made_rev <- r :: c.made_rev
    | Sim.Trace.Decision_outcome { decision; mean_us; p99_us; n } ->
      Hashtbl.replace (chain t r.id).outcomes decision
        (if n > 0 then Done { mean_us; p99_us; n } else Idle)
    | _ -> ()

  type flip = { made : Sim.Trace.record; decision : int; outcome : tenure; previous : tenure }
  type group = { id : string; decisions : int; flips : flip list }

  let groups t =
    List.map
      (fun (id, c) ->
        let tenure d = Option.value (Hashtbl.find_opt c.outcomes d) ~default:Open in
        let flips =
          List.rev
            (List.filter_map
               (fun (made : Sim.Trace.record) ->
                 match made.event with
                 | Sim.Trace.Decision_made { decision; mode; action; _ }
                   when not (String.equal mode action) ->
                   Some { made; decision; outcome = tenure decision; previous = tenure (decision - 1) }
                 | _ -> None)
               c.made_rev)
        in
        { id; decisions = List.length c.made_rev; flips })
      (Table.to_list t)

  type verdict = { improved : bool; by_us : float; pct : float }

  let verdict f =
    match (f.outcome, f.previous) with
    | Done { mean_us; _ }, Done { mean_us = prev; _ } ->
      let d = mean_us -. prev in
      Some
        { improved = d < 0.0; by_us = Float.abs d;
          pct = (if prev > 0.0 then 100.0 *. d /. prev else 0.0) }
    | _ -> None
end
