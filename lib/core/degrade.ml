type config = { freeze_after : int; thaw_after : int }

let default_config = { freeze_after = 2; thaw_after = 2 }

type state = Active | Frozen

type t = {
  cfg : config;
  mutable state : state;
  mutable stale_run : int;
  mutable fresh_run : int;
  mutable freezes : int;
  mutable thaws : int;
}

let create ?(config = default_config) () =
  if config.freeze_after <= 0 || config.thaw_after <= 0 then
    invalid_arg "Degrade.create: hysteresis counts must be positive";
  { cfg = config; state = Active; stale_run = 0; fresh_run = 0; freezes = 0; thaws = 0 }

let step t ~stale =
  if stale then begin
    t.fresh_run <- 0;
    t.stale_run <- t.stale_run + 1;
    if t.state = Active && t.stale_run >= t.cfg.freeze_after then begin
      t.state <- Frozen;
      t.freezes <- t.freezes + 1
    end
  end
  else begin
    t.stale_run <- 0;
    t.fresh_run <- t.fresh_run + 1;
    if t.state = Frozen && t.fresh_run >= t.cfg.thaw_after then begin
      t.state <- Active;
      t.thaws <- t.thaws + 1
    end
  end;
  t.state

let state t = t.state
let freezes t = t.freezes
let thaws t = t.thaws
