(* The batching-control plane: the fleet engine instantiates one
   controller per scope unit (whole fleet, tenant, or single
   connection).  A control group owns the sockets it switches, the client
   estimators it reads, and — for dynamic groups — its own toggler rng,
   degrade state machine and tick-by-tick sample log, so groups are
   fully independent of each other. *)

type dynamic = {
  policy : E2e.Policy.t;
  epsilon : float;
  tick : Sim.Time.span;
  ewma_alpha : float;
  min_observations : int;
  stale_after_rtts : float;
  stale_floor : Sim.Time.span;
  degrade : E2e.Degrade.config;
  fallback : E2e.Toggler.mode;
}

let default_dynamic =
  {
    policy = E2e.Policy.Throughput_under_slo { slo_ns = E2e.Policy.default_slo_ns };
    epsilon = 0.05;
    tick = Sim.Time.ms 1;
    ewma_alpha = 0.3;
    min_observations = 3;
    stale_after_rtts = 8.0;
    stale_floor = Sim.Time.ms 2;
    degrade = E2e.Degrade.default_config;
    fallback = E2e.Toggler.Batch_off;
  }

type aimd_cfg = {
  slo_us : float;
  aimd_tick : Sim.Time.span;
  min_limit : int;
  max_limit : int;
  increase : int;
  decrease : float;
}

let default_aimd =
  {
    slo_us = 500.0;
    aimd_tick = Sim.Time.ms 1;
    min_limit = 64;
    max_limit = 1448;
    increase = 128;
    decrease = 0.5;
  }

type batching = Static_on | Static_off | Dynamic of dynamic | Aimd_limit of aimd_cfg

let initial_nagle = function
  | Static_on -> true
  | Static_off -> false
  | Dynamic _ -> false (* start as Redis ships: TCP_NODELAY *)
  | Aimd_limit _ -> true (* the AIMD limit generalizes Nagle's rule *)

type estimate_sample = {
  at_us : float;
  latency_us : float option;
  throughput_rps : float;
  mode : E2e.Toggler.mode;
}

let ns_opt_to_us = Option.map (fun ns -> ns /. 1e3)

(* Fold the current estimates of the client-side estimators that
   [iter] visits into [acc], per §3.2, in visiting order.  [advance]
   closes each estimator's window (the controller tick does this);
   otherwise it peeks without consuming it. *)
let estimate_socks ~advance iter ~at acc =
  E2e.Aggregate.reset acc;
  iter (fun sock -> ignore (E2e.Estimator.fold (Tcp.Socket.estimator sock) ~at ~advance acc))

type t = {
  batching : batching;
  mutable toggler : E2e.Toggler.t option;
  mutable aimd : E2e.Aimd.t option;
  mutable degrade : E2e.Degrade.t option;
  samples_rev : estimate_sample list ref;
  (* The members of a dynamic or AIMD group.  [alls] is in switch
     order: the run-start clients, then the run-start servers, then each
     adopted (client, server) pair.  Both are mutable so connections can
     join (churn spawn) and leave (drain + FIN) a live group: the
     decision-tick closures read these fields, never a captured array.
     A static group switches nothing and reads no estimator, so it
     keeps no member list. *)
  mutable clients : Tcp.Socket.t array;
  mutable alls : Tcp.Socket.t array;
}

let is_static = function Static_on | Static_off -> true | Dynamic _ | Aimd_limit _ -> false

(* The run-start members of a switching group, as arrays. *)
let collect members =
  let cs = ref [] and ss = ref [] in
  members (fun client server ->
      cs := client :: !cs;
      ss := server :: !ss);
  let clients = Array.of_list (List.rev !cs) in
  (clients, Array.append clients (Array.of_list (List.rev !ss)))

let attach ?ledger ~engine ~until ~rng ~fault_armed ~batching ~members () =
  let clients, alls = if is_static batching then ([||], [||]) else collect members in
  let samples_rev = ref [] in
  let g = { batching; toggler = None; aimd = None; degrade = None; samples_rev; clients; alls } in
  (* The tick's aggregate over the group's clients, each window closed,
     folded into the group's one accumulator: a tick allocates the same
     however large the group. *)
  let aggregate_estimate acc at =
    estimate_socks ~advance:true (fun f -> Array.iter f g.clients) ~at acc;
    E2e.Aggregate.result acc
  in
  let kick_all () = Array.iter Tcp.Socket.kick g.alls in
  (* Age (µs) of the freshest accepted remote share across the group's
     estimators — the staleness clock the ledger records; -1 until the
     first share arrives.  The smallest age is that of the latest
     share, since rounding keeps [to_us at -. to_us t0] monotone in
     [t0]; so the loop folds int times, with -1 for "none yet". *)
  let stale_age_us at =
    let latest = ref (-1) in
    for i = 0 to Array.length g.clients - 1 do
      let t0 = E2e.Estimator.last_share_at (Tcp.Socket.estimator g.clients.(i)) in
      if t0 > !latest then latest := t0
    done;
    if !latest < 0 then -1.0 else Stdlib.max (Sim.Time.to_us at -. Sim.Time.to_us !latest) 0.0
  in
  match batching with
  | Static_on | Static_off -> g
  | Aimd_limit a ->
    (* The AIMD variable is "latency headroom" h in [1, span+1]: the
       batching limit is max_limit - (h - 1).  While the SLO is met,
       h grows additively (gently probing toward less batching, hence
       lower latency); on a violation h halves (the limit jumps back
       toward full Nagle, recovering amortization fast) — the
       Chiu–Jain asymmetry with SLO violation as the congestion
       signal. *)
    let span = a.max_limit - a.min_limit in
    let controller =
      E2e.Aimd.create ~initial:1 ~min_limit:1 ~max_limit:(span + 1)
        ~increase:a.increase ~decrease:a.decrease ()
    in
    let limit_of_headroom h = a.max_limit - (h - 1) in
    let set_limit limit =
      let limit = Some limit in
      Array.iter (fun sock -> Tcp.Socket.set_nagle_min_send sock limit) g.alls;
      kick_all ()
    in
    set_limit (limit_of_headroom (E2e.Aimd.limit controller));
    let acc = E2e.Aggregate.acc () in
    let rec tick () =
      let at = Sim.Engine.now engine in
      let agg = aggregate_estimate acc at in
      let before = limit_of_headroom (E2e.Aimd.limit controller) in
      let reason =
        match agg.latency_ns with
        | Some latency_ns when agg.throughput > 0.0 ->
          let fb = if latency_ns <= a.slo_us *. 1e3 then `Good else `Bad in
          set_limit (limit_of_headroom (E2e.Aimd.feedback controller fb));
          (match fb with `Good -> "good" | `Bad -> "bad")
        | Some _ | None -> "hold"
      in
      (match ledger with
      | Some lg ->
        E2e.Ledger.decision lg ~at
          ?on_us:(ns_opt_to_us agg.latency_ns)
          ~mode:(Printf.sprintf "limit=%d" before)
          ~action:
            (Printf.sprintf "limit=%d"
               (limit_of_headroom (E2e.Aimd.limit controller)))
          ~reason ~frozen:false ~stale_us:(stale_age_us at) ()
      | None -> ());
      if Sim.Time.compare (Sim.Time.add at a.aimd_tick) until <= 0 then
        Sim.Engine.post engine ~after:a.aimd_tick tick
    in
    Sim.Engine.post engine ~after:a.aimd_tick tick;
    g.aimd <- Some controller;
    g
  | Dynamic d ->
    let toggler =
      E2e.Toggler.create ~epsilon:d.epsilon ~ewma_alpha:d.ewma_alpha
        ~min_observations:d.min_observations ~policy:d.policy ~rng
        ~initial:
          (if initial_nagle batching then E2e.Toggler.Batch_on
           else E2e.Toggler.Batch_off)
        ()
    in
    (* Graceful degradation is armed only under a fault plan: clean
       runs must stay bit-identical to pre-fault behaviour, and a
       low-rate clean run can legitimately go shares-quiet for longer
       than any reasonable staleness timeout. *)
    let degrade = if fault_armed then Some (E2e.Degrade.create ~config:d.degrade ()) else None in
    let set_mode mode =
      let enabled = match mode with E2e.Toggler.Batch_on -> true | Batch_off -> false in
      Array.iter (fun sock -> Tcp.Socket.set_nagle_enabled sock enabled) g.alls;
      kick_all ()
    in
    let step_degrade at =
      match degrade with
      | None -> false
      | Some dg ->
        (* Stale once no flow has accepted a share within
           max(k · srtt, floor); the timeout tracks the live RTT
           estimate. *)
        let stale =
          Array.length g.clients > 0
          && Array.for_all
            (fun sock ->
              let e = Tcp.Socket.estimator sock in
              let srtt = Option.value (Tcp.Rtt.srtt (Tcp.Socket.rtt sock)) ~default:0 in
              let timeout =
                Stdlib.max
                  (int_of_float (d.stale_after_rtts *. float_of_int srtt))
                  d.stale_floor
              in
              E2e.Estimator.set_staleness e ~timeout:(Some timeout);
              E2e.Estimator.is_stale e ~at)
            g.clients
        in
        let state = E2e.Degrade.step dg ~stale in
        E2e.Toggler.force toggler
          (match state with
          | E2e.Degrade.Frozen -> Some d.fallback
          | E2e.Degrade.Active -> None);
        state = E2e.Degrade.Frozen
    in
    let acc = E2e.Aggregate.acc () in
    let rec tick () =
      let at = Sim.Engine.now engine in
      let mode = E2e.Toggler.mode toggler in
      let frozen = step_degrade at in
      let agg = aggregate_estimate acc at in
      if acc.estimates > 0.0 then begin
        (* While frozen the estimates are known-garbage (stale remote
           windows): keep them out of the arms so the bandit resumes
           from trustworthy scores after the fault clears. *)
        (match agg.latency_ns with
        | Some latency_ns when agg.throughput > 0.0 && not frozen ->
          E2e.Toggler.observe toggler ~mode
            { E2e.Policy.latency_ns; throughput = agg.throughput }
        | Some _ | None -> ());
        samples_rev :=
          {
            at_us = Sim.Time.to_us at;
            latency_us = ns_opt_to_us agg.latency_ns;
            throughput_rps = agg.throughput;
            mode;
          }
          :: !samples_rev
      end;
      let expl = E2e.Toggler.decide_explained toggler in
      set_mode expl.chosen;
      (match ledger with
      | Some lg ->
        E2e.Ledger.decision lg ~at ?on_us:expl.on_us ?off_us:expl.off_us
          ~mode:(E2e.Toggler.mode_to_string expl.before)
          ~action:(E2e.Toggler.mode_to_string expl.chosen)
          ~reason:(E2e.Toggler.reason_to_string expl.why)
          ~frozen ~stale_us:(stale_age_us at) ()
      | None -> ());
      if Sim.Time.compare (Sim.Time.add at d.tick) until <= 0 then
        Sim.Engine.post engine ~after:d.tick tick
    in
    Sim.Engine.post engine ~after:d.tick tick;
    g.toggler <- Some toggler;
    g.degrade <- degrade;
    g

let samples t = List.rev !(t.samples_rev)
let final_mode t = Option.map E2e.Toggler.mode t.toggler
let toggler t = t.toggler

let current_nagle t =
  match t.toggler with
  | Some tg -> (match E2e.Toggler.mode tg with Batch_on -> true | Batch_off -> false)
  | None -> initial_nagle t.batching

(* A connection spawned mid-run joins a live group: it becomes visible
   to the next decision tick and immediately receives the group's
   current mode/limit — the cold-start inheritance path for
   [Global]/[Per_tenant] scope (a fresh socket otherwise starts at the
   configuration default and waits a tick for correction). *)
let adopt ?(inherit_mode = true) t ~client_sock ~server_sock =
  if not (is_static t.batching) then begin
    t.clients <- Array.append t.clients [| client_sock |];
    t.alls <- Array.append t.alls [| client_sock; server_sock |]
  end;
  if inherit_mode then
    match t.batching with
  | Static_on | Static_off -> ()
  | Dynamic _ ->
    let enabled = current_nagle t in
    Tcp.Socket.set_nagle_enabled client_sock enabled;
    Tcp.Socket.set_nagle_enabled server_sock enabled
  | Aimd_limit a ->
    let limit =
      match t.aimd with
      | Some c -> a.max_limit - (E2e.Aimd.limit c - 1)
      | None -> a.max_limit
    in
    Tcp.Socket.set_nagle_min_send client_sock (Some limit);
    Tcp.Socket.set_nagle_min_send server_sock (Some limit)

(* Departing connections leave the group before closing so the decision
   tick stops reading their (now idle) estimators. *)
let without socks drop = Array.of_list (List.filter (fun s -> not (drop s)) (Array.to_list socks))

let abandon t ~client_sock ~server_sock =
  t.clients <- without t.clients (fun s -> s == client_sock);
  t.alls <- without t.alls (fun s -> s == client_sock || s == server_sock)

let final_batch_limit t =
  match (t.aimd, t.batching) with
  | Some c, Aimd_limit a -> Some (a.max_limit - (E2e.Aimd.limit c - 1))
  | _ -> None

let degrade_freezes t = Option.map E2e.Degrade.freezes t.degrade
let degrade_thaws t = Option.map E2e.Degrade.thaws t.degrade

let degrade_frozen_end t =
  Option.map (fun d -> E2e.Degrade.state d = E2e.Degrade.Frozen) t.degrade

(* Mean of the estimate samples inside the measured window — how
   dynamic runs summarize their advancing estimation windows. *)
let sample_summary t ~warmup_until =
  let measured =
    List.filter (fun s -> s.at_us > Sim.Time.to_us warmup_until) (samples t)
  in
  let weighted, count, tput_sum =
    List.fold_left
      (fun (acc, n, tp) s ->
        match s.latency_us with
        | Some us -> (acc +. us, n + 1, tp +. s.throughput_rps)
        | None -> (acc, n, tp))
      (0.0, 0, 0.0) measured
  in
  if count = 0 then (None, 0.0)
  else
    ( Some (weighted /. float_of_int count),
      tput_sum /. float_of_int count )
