(* perfbench: the repository benchmark.

     perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
     perfbench/run.sh --catalogue
     perfbench/run.sh --record-reference FIRST LAST

   Run from the repository root.  The last line of standard output is
   one JSON object with the run's metrics; the exit code is nonzero
   when the output oracle fails. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
    \       main.exe --catalogue\n\
    \       main.exe --record-reference FIRST_SEED LAST_SEED";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
  exit 2

let catalogue () =
  let entry (mt : Bench.metric) =
    Printf.printf "{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}\n" mt.name mt.unit
      (match mt.better with Lower -> "lower" | Higher -> "higher")
  in
  print_endline "# end_to_end";
  List.iter entry Bench.end_to_end;
  print_endline "# per_layer";
  List.iter entry Bench.per_layer;
  Printf.printf "# seeds\ndefault %d\nheld-out %d\n" Bench.default_seed Bench.held_out_seed;
  print_endline "# workloads";
  List.iter (fun (w : Workloads.t) -> Printf.printf "%s\t%s\n" w.name w.why) Workloads.all

(* Prints the reference digest of every workload for a range of
   seeds, in the format of perfbench/reference.txt. *)
let record_reference first last =
  List.iter
    (fun (w : Workloads.t) ->
      for seed = first to last do
        let out, _ = Bench.simulate w (w.config ~seed) in
        let c = Oracle.closure (Oracle.rows out) in
        if c.lost > 0 then (
          Printf.eprintf "%s seed %d: accounting closure broken\n" w.name seed;
          exit 1);
        Printf.printf "%s %d %s\n%!" w.name seed (Oracle.digest out)
      done)
    Workloads.all

let () =
  let workload = ref None and seed = ref Bench.default_seed in
  let seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := (match int_of_string_opt v with Some s -> s | None -> usage ());
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := (match float_of_string_opt v with Some s when s > 0.0 -> s | _ -> usage ());
      parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> false | "1" -> true | _ -> usage ());
      parse rest
    | [ "--catalogue" ] ->
      catalogue ();
      exit 0
    | [ "--record-reference"; a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b ->
        if not (Sys.file_exists Bench.run_dir) then Sys.mkdir Bench.run_dir 0o755;
        record_reference a b;
        exit 0
      | _ -> usage ())
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match Option.bind !workload Workloads.find with Some w -> w | None -> usage ()
  in
  let r, json = Bench.run w ~seed:!seed ~seconds:!seconds ~trace:!trace in
  List.iter print_endline r.table;
  print_endline json;
  if not r.correct then exit 1
