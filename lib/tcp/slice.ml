type t = { base : string; off : int; len : int }

let empty = { base = ""; off = 0; len = 0 }
let of_string s = { base = s; off = 0; len = String.length s }
let length t = t.len

let rec lengths_from acc = function [] -> acc | s :: rest -> lengths_from (acc + s.len) rest
let total_length views = lengths_from 0 views

let sub t off len =
  if off < 0 || len < 0 || off + len > t.len then invalid_arg "Slice.sub";
  if off = 0 && len = t.len then t else { base = t.base; off = t.off + off; len }

let blit t ~src_off dst ~dst_off ~len =
  if src_off < 0 || len < 0 || src_off + len > t.len then invalid_arg "Slice.blit";
  Bytes.blit_string t.base (t.off + src_off) dst dst_off len

let to_string t =
  if t.off = 0 && t.len = String.length t.base then t.base else String.sub t.base t.off t.len
