type mode = Batch_on | Batch_off

let mode_to_string = function Batch_on -> "on" | Batch_off -> "off"
let flip = function Batch_on -> Batch_off | Batch_off -> Batch_on

type arm = { latency : Ewma.t; throughput : Ewma.t; mutable samples : int }

type t = {
  epsilon : float;
  min_observations : int;
  policy : Policy.t;
  rng : Sim.Rng.t;
  on_arm : arm;
  off_arm : arm;
  mutable current : mode;
  mutable forced : mode option;
}

let make_arm alpha = { latency = Ewma.create ~alpha; throughput = Ewma.create ~alpha; samples = 0 }

let create ?(epsilon = 0.05) ?(ewma_alpha = 0.3) ?(min_observations = 3) ~policy ~rng
    ~initial () =
  if epsilon < 0.0 || epsilon > 1.0 then
    invalid_arg "Toggler.create: epsilon must be in [0,1]";
  if min_observations <= 0 then
    invalid_arg "Toggler.create: min_observations must be positive";
  {
    epsilon;
    min_observations;
    policy;
    rng;
    on_arm = make_arm ewma_alpha;
    off_arm = make_arm ewma_alpha;
    current = initial;
    forced = None;
  }

let arm t = function Batch_on -> t.on_arm | Batch_off -> t.off_arm

let mode t = t.current

let observe t ~mode (outcome : Policy.outcome) =
  let a = arm t mode in
  ignore (Ewma.update a.latency outcome.latency_ns);
  ignore (Ewma.update a.throughput outcome.throughput);
  a.samples <- a.samples + 1

let observations t m = (arm t m).samples

(* Cold-start inheritance: pre-load an arm with a sibling group's
   smoothed outcome so a freshly spawned per-conn group exploits the
   fleet's experience instead of re-exploring from nothing.  Counts as
   enough observations to skip the undersampled-forcing phase, but the
   EWMA still adapts as real samples arrive. *)
let seed_arm t ~mode (outcome : Policy.outcome) =
  let a = arm t mode in
  ignore (Ewma.update a.latency outcome.latency_ns);
  ignore (Ewma.update a.throughput outcome.throughput);
  if a.samples < t.min_observations then a.samples <- t.min_observations

let smoothed t m : Policy.outcome option =
  let a = arm t m in
  match (Ewma.value a.latency, Ewma.value a.throughput) with
  | Some latency_ns, Some throughput -> Some { latency_ns; throughput }
  | _ -> None

let force t m = t.forced <- m
let forced t = t.forced

type reason = Explore | Exploit | Undersampled | Forced

let reason_to_string = function
  | Explore -> "explore"
  | Exploit -> "exploit"
  | Undersampled -> "undersampled"
  | Forced -> "forced"

type explanation = {
  before : mode;
  chosen : mode;
  on_us : float option;
  off_us : float option;
  why : reason;
}

(* Must consume the rng byte-identically to the pre-explanation
   [decide_free]: one [Rng.float] draw iff the other arm has enough
   samples, and none at all on the forced path. *)
let decide_explained t =
  let before = t.current in
  let smoothed_us m =
    match smoothed t m with
    | Some (o : Policy.outcome) -> Some (o.latency_ns /. 1e3)
    | None -> None
  in
  let explain chosen why =
    {
      before;
      chosen;
      on_us = smoothed_us Batch_on;
      off_us = smoothed_us Batch_off;
      why;
    }
  in
  match t.forced with
  | Some m ->
      (* Degraded mode: pin the forced mode without consuming the rng,
         so exploration resumes exactly where it left off once
         released. *)
      t.current <- m;
      explain m Forced
  | None ->
      let other = flip t.current in
      let next, why =
        if (arm t other).samples < t.min_observations then
          (* The other arm is under-sampled: explore it so exploitation
             has something to compare against. *)
          (other, Undersampled)
        else if Sim.Rng.float t.rng < t.epsilon then (other, Explore)
        else begin
          match (smoothed t t.current, smoothed t other) with
          | Some cur, Some oth ->
              if Policy.better t.policy oth cur then (other, Exploit)
              else (t.current, Exploit)
          | Some _, None -> (t.current, Exploit)
          | None, Some _ -> (other, Exploit)
          | None, None -> (t.current, Exploit)
        end
      in
      t.current <- next;
      explain next why

let decide t = (decide_explained t).chosen
