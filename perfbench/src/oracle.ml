(* Output oracle: accounting closure per tenant and per shard, and a
   digest of the simulated scalars.  Perf work must leave the digest of
   every (workload, seed) bit-identical; floats enter the digest as
   their exact bits. *)

module R = Loadgen.Runner
module F = Loadgen.Fleet

type row = { label : string; issued : int; completed_total : int; outstanding_end : int }

(* Every accounting unit of a run: the single run itself, or each fleet
   tenant and each shard. *)
let rows = function
  | Workloads.Single_r r ->
    [
      {
        label = "run";
        issued = r.R.issued;
        completed_total = r.completed_total;
        outstanding_end = r.outstanding_end;
      };
    ]
  | Workloads.Fleet_r r ->
    List.map
      (fun (t : F.tenant_result) ->
        {
          label = "tenant " ^ t.t_name;
          issued = t.t_issued;
          completed_total = t.t_completed_total;
          outstanding_end = t.t_outstanding_end;
        })
      r.F.tenants
    @ List.map
        (fun (s : F.shard_result) ->
          {
            label = Printf.sprintf "shard s%d" s.sh_index;
            issued = s.sh_issued;
            completed_total = s.sh_completed_total;
            outstanding_end = s.sh_outstanding_end;
          })
        r.F.shards

(* Requests that are neither completed nor still in flight. *)
let lost row = abs (row.issued - row.completed_total - row.outstanding_end)

type closure = { issued : int; lost : int; broken : string list }

(* Tenants and shards partition the same requests, so [issued] counts
   tenant rows only (shard rows are a second view of them). *)
let closure rows =
  let tenant_rows = List.filter (fun r -> not (String.starts_with ~prefix:"shard" r.label)) rows in
  {
    issued = List.fold_left (fun acc (r : row) -> acc + r.issued) 0 tenant_rows;
    lost = List.fold_left (fun acc r -> acc + lost r) 0 rows;
    broken = List.filter_map (fun r -> if lost r > 0 then Some r.label else None) rows;
  }

let scalars = function
  | Workloads.Single_r r ->
    let b = Buffer.create 256 in
    Printf.bprintf b "run %d %d %d %d %h %h %h %d %d %d" r.R.completed r.issued
      r.completed_total r.outstanding_end r.measured_mean_us r.measured_p50_us
      r.measured_p99_us r.packets r.server_wakeups r.nagle_toggles;
    Buffer.contents b
  | Workloads.Fleet_r r ->
    let b = Buffer.create 1024 in
    List.iter
      (fun (t : F.tenant_result) ->
        Printf.bprintf b "tenant %s %d %d %d %d %h %h %h %d\n" t.t_name t.t_completed
          t.t_issued t.t_completed_total t.t_outstanding_end t.t_mean_us t.t_p50_us
          t.t_p99_us t.t_nagle_toggles)
      r.F.tenants;
    List.iter
      (fun (s : F.shard_result) ->
        Printf.bprintf b "shard %d %d %d %d %d %d %h %h %h\n" s.sh_index s.sh_conns
          s.sh_issued s.sh_completed_total s.sh_outstanding_end s.sh_completed
          s.sh_achieved_rps s.sh_mean_us s.sh_p99_us)
      r.F.shards;
    Printf.bprintf b "fleet %h %h" r.F.fleet_mean_us r.fleet_p99_us;
    Buffer.contents b

let digest outcome = Digest.to_hex (Digest.string (scalars outcome))

(* Reference digests: one "<workload> <seed> <md5 hex>" line each. *)
let load_reference path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ w; s; d ] -> Option.map (fun s -> ((w, s), d)) (int_of_string_opt s)
           | _ -> None)
