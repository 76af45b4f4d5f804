type ('k, 'v) t = { tbl : ('k, 'v) Hashtbl.t; mutable order_rev : 'k list }

let create () = { tbl = Hashtbl.create 8; order_rev = [] }

let find_opt t k = Hashtbl.find_opt t.tbl k

let find_or_add t k make =
  match Hashtbl.find_opt t.tbl k with
  | Some v -> v
  | None ->
    let v = make k in
    Hashtbl.add t.tbl k v;
    t.order_rev <- k :: t.order_rev;
    v

let to_list t = List.rev_map (fun k -> (k, Hashtbl.find t.tbl k)) t.order_rev
