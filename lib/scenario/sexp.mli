(** Positioned s-expressions for the scenario matrix format.

    The concrete syntax of DESIGN.md §12: atoms, quoted strings,
    parenthesised lists, and [;]-to-end-of-line comments.  The parser is
    hand-written (no parser dependency) and records the source position
    each node starts at, so {!Spec} can report validation errors as
    [file:line:col: message].  The round-trip property in
    [test/test_scenario.ml] parses what a canonical printer emits and
    gets the same forms back, up to positions. *)

type pos = { line : int; col : int }
(** 1-based source position. *)

type t = { desc : desc; pos : pos }
and desc = Atom of string | List of t list

type error = { error_pos : pos; message : string }

val format_error : file:string -> error -> string
(** [format_error ~file e] is ["file:line:col: message"]. *)

val parse_string : string -> (t list, error) result
(** [parse_string src] parses every top-level form in [src]. *)
