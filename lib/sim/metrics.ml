(* A small registry of named instruments.  Sources are registered once
   (counters and histograms are get-or-create; gauges replace) and read
   out together by [sample], which flattens everything into pure
   [(name, float)] pairs — closures never escape into samples, so
   sampled output stays safe for structural comparison across runs. *)

type counter = { c_name : string; mutable c_value : int }

type source =
  | Counter of counter
  | Gauge of (unit -> float)
  | Hist of Histo.t

(* [by_name] indexes [sources] so registering N instruments costs
   O(N), not the O(N^2) of a list scan per registration. *)
type t = {
  mutable sources : (string * source) list;  (* newest first *)
  by_name : (string, source) Hashtbl.t;
}

let create () = { sources = []; by_name = Hashtbl.create 16 }
let find_source t name = Hashtbl.find_opt t.by_name name

let add_source t name src =
  t.sources <- (name, src) :: t.sources;
  Hashtbl.replace t.by_name name src

let wrong_kind name what =
  invalid_arg
    (Printf.sprintf "Metrics: %S already registered as a different kind (%s)"
       name what)

let counter t name =
  match find_source t name with
  | Some (Counter c) -> c
  | Some _ -> wrong_kind name "wanted counter"
  | None ->
      let c = { c_name = name; c_value = 0 } in
      add_source t name (Counter c);
      c

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let counter_name c = c.c_name
let counter_value c = c.c_value

let gauge t name f =
  match find_source t name with
  | Some (Gauge _) ->
      t.sources <-
        List.map (fun (n, src) -> if String.equal n name then (n, Gauge f) else (n, src)) t.sources;
      Hashtbl.replace t.by_name name (Gauge f)
  | Some _ -> wrong_kind name "wanted gauge"
  | None -> add_source t name (Gauge f)

let histogram t name =
  match find_source t name with
  | Some (Hist h) -> h
  | Some _ -> wrong_kind name "wanted histogram"
  | None ->
      let h = Histo.create () in
      add_source t name (Hist h);
      h

let names t = List.rev_map fst t.sources

type sample = { s_at : Time.t; values : (string * float) list }

let sample t ~at =
  let values =
    List.fold_left
      (fun acc (name, src) ->
        match src with
        | Counter c -> (name, float_of_int c.c_value) :: acc
        | Gauge f -> (name, f ()) :: acc
        | Hist h ->
            (name ^ ".count", float_of_int (Histo.count h))
            :: (name ^ ".mean", Option.value (Histo.mean h) ~default:0.0)
            :: (name ^ ".p99", Option.value (Histo.quantile h 99.0) ~default:0.0)
            :: acc)
      [] t.sources
  in
  { s_at = at; values }

let sample_to_json ?run s =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "{\"at_ns\":%d" (Time.to_ns s.s_at));
  (match run with
  | Some run ->
      Buffer.add_string b ",\"run\":\"";
      Buffer.add_string b run;
      Buffer.add_char b '"'
  | None -> ());
  List.iter
    (fun (name, v) ->
      Buffer.add_string b ",\"";
      Buffer.add_string b name;
      Buffer.add_string b "\":";
      if Float.is_finite v then Buffer.add_string b (Printf.sprintf "%.17g" v)
      else Buffer.add_string b "null")
    s.values;
  Buffer.add_char b '}';
  Buffer.contents b
