(** The one reader of line-oriented text inputs: scenarios
    ([Scenario.Spec]), fault plans ([Fault.Plan]), request and gap
    traces ([Loadgen.Trace]), batching policies ([E2e.Policy]) and
    the numbers of [e2ebench]'s flags all parse through it.

    {b Lines.}  {!fold} splits a text into lines and each line into
    fields; errors carry the 1-based line number.

    {b Pairs.}  A directive's arguments are [key=value] fields
    ({!pairs}): a key outside the accepted set is an error that lists
    the set, and so is a key given twice.

    {b Numbers.}  One rule for every number read: a {!number} is what
    [float_of_string] reads, and finite; an {!integer} is what
    [int_of_string] reads, so it fits an OCaml [int].  Given [~unit]
    (nanoseconds per unit), either is a time, and its count of
    nanoseconds must lie within {!Time}'s range: below 2{^62} in
    magnitude, so converting it to a {!Time.span} cannot overflow. *)

type syntax =
  | Directives
      (** Fields are separated by spaces and tabs; [#] starts a
          comment that runs to the end of the line. *)
  | Records
      (** The line is trimmed and its fields are separated by spaces;
          a line whose first character is [#] is a comment, and a [#]
          anywhere else is data (a request key may hold one). *)

val fold :
  syntax ->
  ?what:string ->
  ('a -> string list -> ('a, string) result) ->
  'a ->
  string ->
  ('a, string) result
(** [fold syntax ?what f init text] folds [f] over the fields of each
    line of [text] that has any.  An [Error msg] from line [n] becomes
    [Error "<what> line n: msg"], or ["line n: msg"] without [what]. *)

val file : (string -> ('a, string) result) -> string -> ('a, string) result
(** [file parse path] parses the contents of [path]; a parse error is
    prefixed with ["<path>: "], and an unreadable file is an error
    naming it. *)

(** {1 [key=value] pairs} *)

type pairs = (string * string) list

val pairs : keys:string list -> string list -> (pairs, string) result
(** Split each field at its first [=], in order.  A field without [=],
    a key not in [keys] (the error lists them) and a repeated key are
    errors. *)

val get :
  pairs -> string -> (string -> ('a, string) result) -> default:'a -> ('a, string) result
(** [get pairs key read ~default] is [default] when [key] is absent,
    else [read] of its value; an error is prefixed with ["<key>: "]. *)

val need : pairs -> string -> (string -> ('a, string) result) -> ('a, string) result
(** Like {!get}, but a missing key is an error. *)

(** {1 Numbers} *)

val number : ?unit:Time.span -> string -> (float, string) result
(** A finite float; with [~unit], a time in units of [unit] ns. *)

val integer : ?unit:Time.span -> string -> (int, string) result
(** An [int]; with [~unit], a time in units of [unit] ns. *)

val list : (string -> ('a, string) result) -> string -> ('a list, string) result
(** Comma-separated items, each read by the given reader; an empty
    item is an error. *)
