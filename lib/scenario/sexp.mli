(** Positioned s-expressions for the scenario matrix format.

    The concrete syntax of DESIGN.md §12: atoms, quoted strings,
    parenthesised lists, and [;]-to-end-of-line comments.  The parser is
    hand-written (no parser dependency) and records the source position
    each node starts at, so {!Spec} can report validation errors as
    [file:line:col: message].  The printer emits a canonical single-line
    form; [parse ∘ print = id] up to positions, which the round-trip
    property in [test/test_scenario.ml] enforces. *)

type pos = { line : int; col : int }
(** 1-based source position. *)

type t = { desc : desc; pos : pos }
and desc = Atom of string | List of t list

val atom : string -> t
(** [atom s] is a synthesised atom (at line 0). *)

val list : t list -> t
(** [list ts] is a synthesised list (at line 0). *)

val equal : t -> t -> bool
(** Structural equality, ignoring positions. *)

val to_string : t -> string
(** Canonical single-line rendering.  Atoms print bare when they
    contain only printable non-delimiter ASCII; otherwise they print as
    a double-quoted string with backslash escapes (quote, backslash,
    [n], [t], [r], and [DDD] decimal byte). *)

type error = { error_pos : pos; message : string }

val format_error : file:string -> error -> string
(** [format_error ~file e] is ["file:line:col: message"]. *)

val parse_string : string -> (t list, error) result
(** [parse_string src] parses every top-level form in [src]. *)
