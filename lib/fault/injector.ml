type action = Deliver | Drop of string

type decision = { action : action; extra_delay_us : float; duplicate : bool }

let deliver = { action = Deliver; extra_delay_us = 0.0; duplicate = false }

type t = {
  side : Plan.side;
  rng : Sim.Rng.t;
  mutable bad : bool;
  mutable packets : int;
  mutable drops : int;
  mutable reorders : int;
  mutable duplicates : int;
  mutable corruptions : int;
}

let create ~side ~rng =
  {
    side;
    rng;
    bad = false;
    packets = 0;
    drops = 0;
    reorders = 0;
    duplicates = 0;
    corruptions = 0;
  }

let in_blackout side ~now_us =
  List.exists
    (fun (b : Plan.blackout) -> now_us >= b.from_us && now_us < b.until_us)
    side.Plan.blackouts

(* Fixed per-packet draw order — blackout (no draw), loss (transition
   then drop), reorder (fire then displacement), duplication — so a
   given seed replays the same fault sequence regardless of what each
   stage decides. *)
let decide t ~now_us =
  t.packets <- t.packets + 1;
  if in_blackout t.side ~now_us then begin
    t.drops <- t.drops + 1;
    { deliver with action = Drop "blackout" }
  end
  else begin
    let lost =
      match t.side.Plan.loss with
      | None -> false
      | Some g ->
        let flip = Sim.Rng.float t.rng in
        t.bad <- (if t.bad then flip >= g.p_bg else flip < g.p_gb);
        Sim.Rng.float t.rng < (if t.bad then g.loss_bad else g.loss_good)
    in
    if lost then begin
      t.drops <- t.drops + 1;
      { deliver with action = Drop "loss" }
    end
    else begin
      let extra_delay_us =
        match t.side.Plan.reorder with
        | None -> 0.0
        | Some r ->
          if Sim.Rng.float t.rng < r.reorder_prob then begin
            let slots = 1 + Sim.Rng.int t.rng ~bound:r.max_displacement in
            t.reorders <- t.reorders + 1;
            float_of_int slots *. r.quantum_us
          end
          else 0.0
      in
      let duplicate =
        t.side.Plan.duplicate > 0.0
        && Sim.Rng.float t.rng < t.side.Plan.duplicate
      in
      if duplicate then t.duplicates <- t.duplicates + 1;
      { action = Deliver; extra_delay_us; duplicate }
    end
  end

let corrupt_share t w =
  if t.side.Plan.corrupt <= 0.0 || Sim.Rng.float t.rng >= t.side.Plan.corrupt
  then None
  else begin
    t.corruptions <- t.corruptions + 1;
    let wire = Bytes.of_string (E2e.Exchange.encode (E2e.Exchange.to_triple w)) in
    let flips = 1 + Sim.Rng.int t.rng ~bound:4 in
    for _ = 1 to flips do
      let pos = Sim.Rng.int t.rng ~bound:(Bytes.length wire) in
      let mask = 1 + Sim.Rng.int t.rng ~bound:255 in
      Bytes.set_uint8 wire pos (Bytes.get_uint8 wire pos lxor mask)
    done;
    match E2e.Exchange.decode (Bytes.unsafe_to_string wire) with
    | Ok garbled -> Some (E2e.Exchange.with_share w garbled)
    | Error _ -> Some (E2e.Exchange.without_share w)
  end

let packets t = t.packets
let drops t = t.drops
let reorders t = t.reorders
let duplicates t = t.duplicates
let corruptions t = t.corruptions
