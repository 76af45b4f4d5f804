type value =
  | Simple of string
  | Error of string
  | Integer of int
  | Bulk of string option
  | Array of value list option

let rec equal a b =
  match (a, b) with
  | Simple x, Simple y | Error x, Error y -> String.equal x y
  | Integer x, Integer y -> x = y
  | Bulk x, Bulk y -> Option.equal String.equal x y
  | Array x, Array y -> Option.equal (List.equal equal) x y
  | (Simple _ | Error _ | Integer _ | Bulk _ | Array _), _ -> false

let rec pp ppf = function
  | Simple s -> Format.fprintf ppf "+%s" s
  | Error s -> Format.fprintf ppf "-%s" s
  | Integer i -> Format.fprintf ppf ":%d" i
  | Bulk None -> Format.pp_print_string ppf "(nil)"
  | Bulk (Some s) ->
    if String.length s <= 32 then Format.fprintf ppf "%S" s
    else Format.fprintf ppf "<bulk:%d bytes>" (String.length s)
  | Array None -> Format.pp_print_string ppf "(nil array)"
  | Array (Some vs) ->
    Format.fprintf ppf "[@[<h>%a@]]" (Format.pp_print_list ~pp_sep:(fun ppf () ->
        Format.pp_print_string ppf "; ") pp) vs

let rec count_digits n acc = if n < 10 then acc else count_digits (n / 10) (acc + 1)
let digits n = if n < 0 then String.length (string_of_int n) else count_digits n 1

let header_length n = 1 + digits n + 2
let bulk_length s = header_length (String.length s) + String.length s + 2
let array_header_length = header_length

let rec encoded_length = function
  | Simple s | Error s -> 1 + String.length s + 2
  | Integer i -> header_length i
  | Bulk None -> 5
  | Bulk (Some s) -> bulk_length s
  | Array None -> 5
  | Array (Some vs) ->
    List.fold_left (fun acc v -> acc + encoded_length v) (header_length (List.length vs)) vs

(* Writers return the position after what they wrote. *)
let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let put_crlf b pos =
  Bytes.set b pos '\r';
  Bytes.set b (pos + 1) '\n';
  pos + 2

(* Last digit first, at [i] and leftwards. *)
let rec put_digits b i n =
  Bytes.set b i (Char.unsafe_chr (Char.code '0' + (n mod 10)));
  if n >= 10 then put_digits b (i - 1) (n / 10)

let put_int b pos n =
  if n < 0 then put_string b pos (string_of_int n)
  else begin
    let len = digits n in
    put_digits b (pos + len - 1) n;
    pos + len
  end

let put_header b pos c n =
  Bytes.set b pos c;
  put_crlf b (put_int b (pos + 1) n)

let put_array_header b pos n = put_header b pos '*' n
let put_bulk b pos s = put_crlf b (put_string b (put_header b pos '$' (String.length s)) s)

let rec encode_into b pos = function
  | Simple s -> put_line b pos '+' s
  | Error s -> put_line b pos '-' s
  | Integer i -> put_header b pos ':' i
  | Bulk None -> put_string b pos "$-1\r\n"
  | Bulk (Some s) -> put_bulk b pos s
  | Array None -> put_string b pos "*-1\r\n"
  | Array (Some vs) -> List.fold_left (encode_into b) (put_array_header b pos (List.length vs)) vs

and put_line b pos c s =
  Bytes.set b pos c;
  put_crlf b (put_string b (pos + 1) s)

(* One exact-size allocation, for a value with no shared bulk. *)
let encode v =
  let b = Bytes.create (encoded_length v) in
  ignore (encode_into b 0 v);
  Bytes.unsafe_to_string b

(* A bulk of this many bytes or more is sent as a view of the caller's
   string, not copied into the frame.  OCaml allocates any block above
   [Max_young_wosize] (256 words) straight on the major heap, and a
   string of 2,048 bytes is 257 words with its padding, so a copy of
   such a bulk is a major-heap allocation per message, while its view
   costs four minor words.  A smaller bulk is cheaper copied than
   carried as a separate view. *)
let shared_bulk_min = 2048

let shares s = String.length s >= shared_bulk_min

let rec shared_bytes = function
  | Bulk (Some s) when shares s -> String.length s
  | Array (Some vs) -> List.fold_left (fun acc v -> acc + shared_bytes v) 0 vs
  | Simple _ | Error _ | Integer _ | Bulk _ | Array None -> 0

(* Writes what [encode_into] does minus the payloads of shared bulks;
   returns the end position and, last first, the position each shared
   payload belongs at. *)
let rec frame_into b (pos, cuts) = function
  | Bulk (Some s) when shares s ->
    let pos = put_header b pos '$' (String.length s) in
    (put_crlf b pos, (pos, s) :: cuts)
  | Array (Some vs) ->
    List.fold_left (frame_into b) (put_array_header b pos (List.length vs), cuts) vs
  | v -> (encode_into b pos v, cuts)

(* The wire bytes as views: a shared bulk is a view of its own string,
   and everything else — headers, CRLFs, small bulks — is written into
   one buffer and viewed between them. *)
let encode_slices v =
  match shared_bytes v with
  | 0 -> [ Tcp.Slice.of_string (encode v) ]
  | shared ->
    let b = Bytes.create (encoded_length v - shared) in
    let stop, cuts = frame_into b (0, []) v in
    let frame = Tcp.Slice.of_string (Bytes.unsafe_to_string b) in
    (* Every shared payload follows its header and precedes a CRLF, so
       no frame piece is empty. *)
    let rec views stop acc = function
      | [] -> Tcp.Slice.sub frame 0 stop :: acc
      | (pos, s) :: cuts ->
        views pos (Tcp.Slice.of_string s :: Tcp.Slice.sub frame pos (stop - pos) :: acc) cuts
    in
    views stop [] cuts

(* Redis's default [proto-max-bulk-len]. *)
let max_bulk_length = 512 * 1024 * 1024

module Parser = struct
  module B = Tcp.Bytebuf

  (* A parser is its input: [next] takes complete values off the front
     and leaves a bad one in place, so once a value is malformed every
     later [next] fails on it again. *)
  type t = B.t

  let create = B.create
  let feed = B.append
  let input t = t
  let buffered = B.length

  exception Bad of string

  (* A value is read front to back through a cursor over the input's
     slices, without consuming them.  The cursor holds the slice it is
     in ([base] from [i] to [stop]) and the cells after it, so a byte
     costs one comparison and the step to the next slice comes once per
     slice.  Running out of bytes raises [End_of_file], which leaves the
     input unconsumed so that a later feed can retry. *)
  type cursor = {
    mutable rest : B.cells;
    mutable base : string;
    mutable i : int;
    mutable stop : int;
    mutable origin : int;  (* bytes read = [origin + i] *)
    limit : int;  (* bytes buffered *)
  }

  let cursor input =
    let limit = B.length input in
    match B.cells input with
    | B.Nil as rest -> { rest; base = ""; i = 0; stop = 0; origin = 0; limit }
    | B.Cons { s = { base; off; len }; next } ->
      let i = off + B.head_offset input in
      { rest = next; base; i; stop = off + len; origin = -i; limit }

  let offset c = c.origin + c.i

  let advance c =
    match c.rest with
    | B.Nil -> raise End_of_file
    | B.Cons { s = { base; off; len }; next } ->
      c.origin <- c.origin + c.i - off;
      c.rest <- next;
      c.base <- base;
      c.i <- off;
      c.stop <- off + len

  let[@inline] read_char c =
    if c.i >= c.stop then advance c;
    let ch = String.unsafe_get c.base c.i in
    c.i <- c.i + 1;
    ch

  let rec skip_bytes c len =
    if len > 0 then begin
      if c.i >= c.stop then advance c;
      let k = Stdlib.min len (c.stop - c.i) in
      c.i <- c.i + k;
      skip_bytes c (len - k)
    end

  let rec read_into c dst ~dst_off ~len =
    if len > 0 then begin
      if c.i >= c.stop then advance c;
      let k = Stdlib.min len (c.stop - c.i) in
      Bytes.blit_string c.base c.i dst dst_off k;
      c.i <- c.i + k;
      read_into c dst ~dst_off:(dst_off + k) ~len:(len - k)
    end

  let expect_lf c = if read_char c <> '\n' then raise (Bad "header not terminated by CRLF")

  (* Digits accumulate negatively, so [min_int] parses and every other
     overflow is caught before it wraps. *)
  let rec read_digits c acc =
    match read_char c with
    | '0' .. '9' as ch ->
      let d = Char.code ch - Char.code '0' in
      if acc < (min_int + d) / 10 then raise (Bad "integer out of range");
      read_digits c ((acc * 10) - d)
    | '\r' ->
      expect_lf c;
      acc
    | ch -> raise (Bad (Printf.sprintf "bad digit %C in integer" ch))

  (* The integer ending a header line, through its CRLF. *)
  let read_int c =
    let first = read_char c in
    let negative = first = '-' in
    let first = if negative then read_char c else first in
    if first = '\r' then raise (Bad "empty integer");
    let acc =
      match first with
      | '0' .. '9' -> read_digits c (Char.code '0' - Char.code first)
      | ch -> raise (Bad (Printf.sprintf "bad digit %C in integer" ch))
    in
    if negative then acc
    else if acc = min_int then raise (Bad "integer out of range")
    else -acc

  (* A simple string or error runs to the first CRLF: [c] finds it,
     and a copy of [c] left where the line began reads it out. *)
  let rec line_end c ~after_cr =
    match read_char c with
    | '\n' when after_cr -> offset c - 2
    | ch -> line_end c ~after_cr:(ch = '\r')

  let read_line c =
    let start = { c with i = c.i } in
    let len = line_end c ~after_cr:false - offset start in
    let out = Bytes.create len in
    read_into start out ~dst_off:0 ~len;
    Bytes.unsafe_to_string out

  (* Whether the cells [rest] carry [base] on from byte [off] to its
     end, in order. *)
  let rec continues base off rest =
    off = String.length base
    ||
    match rest with
    | B.Cons { s = { base = b; off = o; len }; next } ->
      b == base && o = off && continues base (off + len) next
    | B.Nil -> false

  (* A bulk that is all of one string, start to end, across however
     many cells — a sender's shared bulk, cut into segments — is that
     string: no copy, and since it is the whole string it pins no
     neighbour's bytes.  Any other bulk is copied out of the shared
     slices into a string the caller owns.  The length is checked
     against what is buffered before anything is allocated. *)
  let read_bulk c n =
    if offset c + n + 2 > c.limit then raise End_of_file;
    if c.i >= c.stop then advance c;
    let base = c.base in
    let v =
      if c.i = 0 && String.length base = n && continues base c.stop c.rest then begin
        skip_bytes c n;
        base
      end
      else begin
        let out = Bytes.create n in
        read_into c out ~dst_off:0 ~len:n;
        Bytes.unsafe_to_string out
      end
    in
    if read_char c <> '\r' || read_char c <> '\n' then
      raise (Bad "bulk payload not terminated by CRLF");
    v

  let rec value c =
    match read_char c with
    | '+' -> Simple (read_line c)
    | '-' -> Error (read_line c)
    | ':' -> Integer (read_int c)
    | '$' ->
      let n = read_int c in
      if n = -1 then Bulk None
      else if n < 0 then raise (Bad "negative bulk length")
      else if n > max_bulk_length then raise (Bad "bulk length exceeds 512 MiB")
      else Bulk (Some (read_bulk c n))
    | '*' ->
      let n = read_int c in
      if n = -1 then Array None
      else if n < 0 then raise (Bad "negative array length")
      else Array (Some (items c n))
    | ch -> raise (Bad (Printf.sprintf "unexpected type byte %C" ch))

  and[@tail_mod_cons] items c n =
    if n = 0 then []
    else
      let v = value c in
      v :: items c (n - 1)

  let next t =
    if B.is_empty t then Ok None
    else
      let c = cursor t in
      match value c with
      | v ->
        B.skip t (offset c);
        Ok (Some v)
      | exception End_of_file -> Ok None
      | exception Bad msg -> Result.Error msg
end

let parse_exactly s =
  let p = Parser.create () in
  Parser.feed p s;
  match Parser.next p with
  | Result.Error e -> Result.Error e
  | Ok None -> Result.Error "incomplete value"
  | Ok (Some v) ->
    if Parser.buffered p <> 0 then Result.Error "trailing bytes after value" else Ok v
