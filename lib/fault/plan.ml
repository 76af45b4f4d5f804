type dir = C2s | S2c | Both

let dir_of_string = function
  | "c2s" -> Ok C2s
  | "s2c" -> Ok S2c
  | "both" -> Ok Both
  | s -> Error (Printf.sprintf "unknown direction %S (want c2s|s2c|both)" s)

type gilbert = {
  p_gb : float;
  p_bg : float;
  loss_good : float;
  loss_bad : float;
}

let bernoulli ~prob =
  if prob < 0.0 || prob >= 1.0 then
    invalid_arg "Fault.Plan.bernoulli: prob must be in [0,1)";
  { p_gb = 0.0; p_bg = 1.0; loss_good = prob; loss_bad = prob }

type reorder = { reorder_prob : float; max_displacement : int; quantum_us : float }

type blackout = { from_us : float; until_us : float }

type step = { at_us : float; gbit_per_s : float option; delay_us : float option }

type side = {
  loss : gilbert option;
  reorder : reorder option;
  duplicate : float;
  corrupt : float;
  blackouts : blackout list;
}

let empty_side =
  { loss = None; reorder = None; duplicate = 0.0; corrupt = 0.0; blackouts = [] }

type t = { c2s : side; s2c : side; steps : step list }

let empty = { c2s = empty_side; s2c = empty_side; steps = [] }

let side_is_empty s =
  s.loss = None && s.reorder = None && s.duplicate = 0.0 && s.corrupt = 0.0
  && s.blackouts = []

let is_empty t = side_is_empty t.c2s && side_is_empty t.s2c && t.steps = []

let side t = function C2s -> t.c2s | S2c -> t.s2c | Both -> invalid_arg "Plan.side"

(* {2 Directive grammar}

   One directive per line, [#] starts a comment:

     loss dir=both prob=0.02              # Bernoulli shorthand
     loss dir=c2s p_gb=0.05 p_bg=0.4 good=0.001 bad=0.3
     reorder dir=both prob=0.05 disp=3 quantum_us=20
     dup dir=s2c prob=0.01
     corrupt dir=both prob=0.02
     blackout dir=both from_ms=150 until_ms=170
     rate at_ms=200 gbps=0.5
     delay at_ms=200 us=100

   Time keys accept both [_us] and [_ms] suffixes. *)

module D = Sim.Directive

let ( let* ) = Result.bind

let prob_of pairs key ~default =
  let* p = D.get pairs key D.number ~default in
  if p < 0.0 || p >= 1.0 then
    Error (Printf.sprintf "%s=%g out of range [0,1)" key p)
  else Ok p

(* Gilbert–Elliott parameters admit 1.0: [bad=1] (drop everything while
   Bad) and [p_bg=1] (leave Bad immediately) are both meaningful. *)
let prob_incl_of pairs key ~default =
  let* p = D.get pairs key D.number ~default in
  if p < 0.0 || p > 1.0 then
    Error (Printf.sprintf "%s=%g out of range [0,1]" key p)
  else Ok p

let us = Sim.Time.us 1

(* A time-valued key: [key_us] or [key_ms], whichever is present. *)
let time_us_of pairs key =
  match (List.mem_assoc (key ^ "_us") pairs, List.mem_assoc (key ^ "_ms") pairs) with
  | false, false -> Error (Printf.sprintf "missing %s_us or %s_ms" key key)
  | true, true -> Error (Printf.sprintf "both %s_us and %s_ms given" key key)
  | true, false -> D.need pairs (key ^ "_us") (D.number ~unit:us)
  | false, true ->
    let* ms = D.need pairs (key ^ "_ms") (D.number ~unit:(Sim.Time.ms 1)) in
    Ok (ms *. 1e3)

let dir_of pairs =
  match List.assoc_opt "dir" pairs with
  | None -> Ok Both
  | Some v -> dir_of_string v

let update plan dir f =
  match dir with
  | C2s -> { plan with c2s = f plan.c2s }
  | S2c -> { plan with s2c = f plan.s2c }
  | Both -> { plan with c2s = f plan.c2s; s2c = f plan.s2c }

let parse_directive plan = function
  | [] -> Ok plan
  | verb :: fields -> (
    let pairs keys = D.pairs ~keys fields in
    match verb with
    | "loss" ->
      let* pairs = pairs [ "dir"; "prob"; "p_gb"; "p_bg"; "good"; "bad" ] in
      let* dir = dir_of pairs in
      let* ge =
        if List.mem_assoc "prob" pairs then
          let* prob = prob_of pairs "prob" ~default:0.0 in
          Ok (bernoulli ~prob)
        else
          let* p_gb = prob_incl_of pairs "p_gb" ~default:0.0 in
          let* p_bg = prob_incl_of pairs "p_bg" ~default:0.0 in
          let* loss_good = prob_incl_of pairs "good" ~default:0.0 in
          let* loss_bad = prob_incl_of pairs "bad" ~default:0.0 in
          Ok { p_gb; p_bg; loss_good; loss_bad }
      in
      Ok (update plan dir (fun s -> { s with loss = Some ge }))
    | "reorder" ->
      let* pairs = pairs [ "dir"; "prob"; "disp"; "quantum_us" ] in
      let* dir = dir_of pairs in
      let* reorder_prob = prob_of pairs "prob" ~default:0.0 in
      let* disp = D.get pairs "disp" D.number ~default:3.0 in
      let* quantum_us = D.get pairs "quantum_us" (D.number ~unit:us) ~default:20.0 in
      if disp < 1.0 || disp >= 0x1p62 then
        Error (Printf.sprintf "reorder: disp=%g out of range [1, 2^62)" disp)
      else if quantum_us <= 0.0 then Error "reorder: quantum_us must be > 0"
      else
        Ok
          (update plan dir (fun s ->
               {
                 s with
                 reorder =
                   Some
                     {
                       reorder_prob;
                       max_displacement = int_of_float disp;
                       quantum_us;
                     };
               }))
    | "dup" ->
      let* pairs = pairs [ "dir"; "prob" ] in
      let* dir = dir_of pairs in
      let* prob = prob_of pairs "prob" ~default:0.0 in
      Ok (update plan dir (fun s -> { s with duplicate = prob }))
    | "corrupt" ->
      let* pairs = pairs [ "dir"; "prob" ] in
      let* dir = dir_of pairs in
      let* prob = prob_of pairs "prob" ~default:0.0 in
      Ok (update plan dir (fun s -> { s with corrupt = prob }))
    | "blackout" ->
      let* pairs = pairs [ "dir"; "from_us"; "from_ms"; "until_us"; "until_ms" ] in
      let* dir = dir_of pairs in
      let* from_us = time_us_of pairs "from" in
      let* until_us = time_us_of pairs "until" in
      if until_us <= from_us then Error "blackout: until must be after from"
      else
        Ok
          (update plan dir (fun s ->
               { s with blackouts = s.blackouts @ [ { from_us; until_us } ] }))
    | "rate" ->
      let* pairs = pairs [ "at_us"; "at_ms"; "gbps" ] in
      let* at_us = time_us_of pairs "at" in
      let* gbps = D.need pairs "gbps" D.number in
      if gbps <= 0.0 then Error "rate: gbps must be positive"
      else
        Ok
          {
            plan with
            steps =
              plan.steps @ [ { at_us; gbit_per_s = Some gbps; delay_us = None } ];
          }
    | "delay" ->
      let* pairs = pairs [ "at_us"; "at_ms"; "us" ] in
      let* at_us = time_us_of pairs "at" in
      let* delay = D.need pairs "us" (D.number ~unit:us) in
      if delay < 0.0 then Error "delay: us must be non-negative"
      else
        Ok
          {
            plan with
            steps = plan.steps @ [ { at_us; gbit_per_s = None; delay_us = Some delay } ];
          }
    | verb ->
      Error
        (Printf.sprintf
           "unknown directive %S (want loss|reorder|dup|corrupt|blackout|rate|delay)" verb))

let of_string text = D.fold D.Directives ~what:"fault plan" parse_directive empty text

let pp_side ppf (name, s) =
  Option.iter
    (fun g ->
      Format.fprintf ppf "loss dir=%s p_gb=%g p_bg=%g good=%g bad=%g@\n" name
        g.p_gb g.p_bg g.loss_good g.loss_bad)
    s.loss;
  Option.iter
    (fun r ->
      Format.fprintf ppf "reorder dir=%s prob=%g disp=%d quantum_us=%g@\n" name
        r.reorder_prob r.max_displacement r.quantum_us)
    s.reorder;
  if s.duplicate > 0.0 then
    Format.fprintf ppf "dup dir=%s prob=%g@\n" name s.duplicate;
  if s.corrupt > 0.0 then
    Format.fprintf ppf "corrupt dir=%s prob=%g@\n" name s.corrupt;
  List.iter
    (fun b ->
      Format.fprintf ppf "blackout dir=%s from_us=%g until_us=%g@\n" name
        b.from_us b.until_us)
    s.blackouts

let pp ppf t =
  pp_side ppf ("c2s", t.c2s);
  pp_side ppf ("s2c", t.s2c);
  List.iter
    (fun st ->
      match (st.gbit_per_s, st.delay_us) with
      | Some g, _ -> Format.fprintf ppf "rate at_us=%g gbps=%g@\n" st.at_us g
      | None, Some d -> Format.fprintf ppf "delay at_us=%g us=%g@\n" st.at_us d
      | None, None -> ())
    t.steps

let to_string t = Format.asprintf "%a" pp t
