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

let digits n =
  let rec go n acc = if n < 10 then acc else go (n / 10) (acc + 1) in
  if n < 0 then String.length (string_of_int n) else go n 1

let rec encoded_length = function
  | Simple s | Error s -> 1 + String.length s + 2
  | Integer i -> 1 + digits i + 2
  | Bulk None -> 5
  | Bulk (Some s) ->
    let n = String.length s in
    1 + digits n + 2 + n + 2
  | Array None -> 5
  | Array (Some vs) ->
    List.fold_left (fun acc v -> acc + encoded_length v) (1 + digits (List.length vs) + 2)
      vs

(* Writers return the position after what they wrote. *)
let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let put_crlf b pos =
  Bytes.set b pos '\r';
  Bytes.set b (pos + 1) '\n';
  pos + 2

let put_int b pos n =
  if n < 0 then put_string b pos (string_of_int n)
  else begin
    let len = digits n in
    let rec go n i =
      Bytes.set b i (Char.unsafe_chr (Char.code '0' + (n mod 10)));
      if n >= 10 then go (n / 10) (i - 1)
    in
    go n (pos + len - 1);
    pos + len
  end

let put_header b pos c n =
  Bytes.set b pos c;
  put_crlf b (put_int b (pos + 1) n)

let rec encode_into b pos = function
  | Simple s -> put_line b pos '+' s
  | Error s -> put_line b pos '-' s
  | Integer i -> put_header b pos ':' i
  | Bulk None -> put_string b pos "$-1\r\n"
  | Bulk (Some s) -> put_crlf b (put_string b (put_header b pos '$' (String.length s)) s)
  | Array None -> put_string b pos "*-1\r\n"
  | Array (Some vs) ->
    List.fold_left (encode_into b) (put_header b pos '*' (List.length vs)) vs

and put_line b pos c s =
  Bytes.set b pos c;
  put_crlf b (put_string b (pos + 1) s)

(* One exact-size allocation: the only copy a payload takes on the send
   side. *)
let encode v =
  let b = Bytes.create (encoded_length v) in
  ignore (encode_into b 0 v);
  Bytes.unsafe_to_string b

module Parser = struct
  type t = {
    input : Tcp.Bytebuf.t;
    mutable failed : string option;
  }

  let create () = { input = Tcp.Bytebuf.create (); failed = None }
  let feed t s = Tcp.Bytebuf.append t.input s
  let input t = t.input
  let buffered t = Tcp.Bytebuf.length t.input

  exception Incomplete
  exception Bad of string

  (* Parsing reads the input in place at positions relative to its
     head; [Incomplete] aborts without consuming, so a later feed can
     retry. *)
  let rec find_crlf b i limit =
    if i + 1 >= limit then raise Incomplete
    else if Tcp.Bytebuf.get b i = '\r' && Tcp.Bytebuf.get b (i + 1) = '\n' then i
    else find_crlf b (i + 1) limit

  let parse_int b ~from ~until =
    let negative = until > from && Tcp.Bytebuf.get b from = '-' in
    let start = if negative then from + 1 else from in
    if start >= until then raise (Bad "empty integer");
    let acc = ref 0 in
    for i = start to until - 1 do
      match Tcp.Bytebuf.get b i with
      | '0' .. '9' as c -> acc := (!acc * 10) + (Char.code c - Char.code '0')
      | c -> raise (Bad (Printf.sprintf "bad digit %C in integer" c))
    done;
    if negative then - !acc else !acc

  (* The receive side's one copy of a payload: out of the shared
     slices into a string the caller owns. *)
  let sub b pos len =
    let out = Bytes.create len in
    Tcp.Bytebuf.blit b ~src_off:pos out ~dst_off:0 ~len;
    Bytes.unsafe_to_string out

  let rec parse b pos limit =
    if pos >= limit then raise Incomplete;
    let header_end = find_crlf b (pos + 1) limit in
    let after = header_end + 2 in
    match Tcp.Bytebuf.get b pos with
    | '+' -> (Simple (sub b (pos + 1) (header_end - pos - 1)), after)
    | '-' -> (Error (sub b (pos + 1) (header_end - pos - 1)), after)
    | ':' -> (Integer (parse_int b ~from:(pos + 1) ~until:header_end), after)
    | '$' ->
      let n = parse_int b ~from:(pos + 1) ~until:header_end in
      if n = -1 then (Bulk None, after)
      else if n < 0 then raise (Bad "negative bulk length")
      else if after + n + 2 > limit then raise Incomplete
      else if
        not (Tcp.Bytebuf.get b (after + n) = '\r' && Tcp.Bytebuf.get b (after + n + 1) = '\n')
      then raise (Bad "bulk payload not terminated by CRLF")
      else (Bulk (Some (sub b after n)), after + n + 2)
    | '*' ->
      let n = parse_int b ~from:(pos + 1) ~until:header_end in
      if n = -1 then (Array None, after)
      else if n < 0 then raise (Bad "negative array length")
      else begin
        let items = ref [] in
        let cursor = ref after in
        for _ = 1 to n do
          let v, next = parse b !cursor limit in
          items := v :: !items;
          cursor := next
        done;
        (Array (Some (List.rev !items)), !cursor)
      end
    | c -> raise (Bad (Printf.sprintf "unexpected type byte %C" c))

  let next t =
    match t.failed with
    | Some msg -> Result.Error msg
    | None -> (
      match parse t.input 0 (Tcp.Bytebuf.length t.input) with
      | v, consumed ->
        Tcp.Bytebuf.skip t.input consumed;
        Ok (Some v)
      | exception Incomplete -> Ok None
      | exception Bad msg ->
        t.failed <- Some msg;
        Result.Error msg)
end

let parse_exactly s =
  let p = Parser.create () in
  Parser.feed p s;
  match Parser.next p with
  | Result.Error e -> Result.Error e
  | Ok None -> Result.Error "incomplete value"
  | Ok (Some v) ->
    if Parser.buffered p <> 0 then Result.Error "trailing bytes after value" else Ok v
