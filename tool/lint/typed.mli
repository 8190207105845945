(** Typed tier of [basalt-lint]: the dataflow rules D9 (iteration-order
    taint) and D10 (RNG stream aliasing), run over the typedtree read
    back from the [.cmt] files a build leaves in [_build] (refresh them
    with [dune build @check]), and the whole-program rule D12 (exports
    without a program caller) over all of them at once.

    On the typedtree, identifiers are resolved [Path.t]s and every
    expression carries its type, so [Basalt_prng.Rng.t] values are
    recognized however they are named — through local module aliases
    ([module Rng = Basalt_prng.Rng]), dune-mangled unit names
    ([Basalt_prng__Rng]), and [Hashtbl.Make] functor instances.

    Files whose [.cmt] is missing are simply not covered by D9/D10; the
    driver records that they went unchecked there, which keeps the D11
    stale-suppression audit from flagging their pragmas.  D12 cannot
    degrade that way — a missing program unit would make its callees
    look dead — so the driver runs it only over a complete tree. *)

exception Cmt_error of string * string
(** [Cmt_error (cmt_path, msg)]: the [.cmt] file could not be read. *)

val lint_cmt : rel_path:string -> string -> Lint.finding list
(** [lint_cmt ~rel_path cmt_path] reads the [.cmt] at [cmt_path] and
    returns the raw (unsuppressed) D9/D10 findings for the unit,
    attributed to [rel_path] and sorted.  A [.cmt] holding anything but
    an implementation (e.g. an interface [.cmti]) yields no findings.
    @raise Cmt_error when the file cannot be read. *)

val lint_structure : rel_path:string -> Typedtree.structure -> Lint.finding list
(** As {!lint_cmt}, over an already-loaded typedtree structure. *)

type d12_unit
(** What D12 keeps of one unit: the top-level [val]s of a [lib/]
    interface, or the value paths and whole modules a program
    references, resolved through aliases and dune-mangled unit names. *)

val d12_unit : rel_path:string -> Cmt_format.cmt_infos -> d12_unit option
(** [d12_unit ~rel_path cmt] summarises the unit read from a [.cmt] or
    [.cmti] whose source is [rel_path]: the interface of a [lib/]
    [.mli], or the implementation of a program ({!Lint.is_program}).
    Any other unit — a test, a fixture — is [None]. *)

val unused_exports : d12_unit list -> Lint.finding list
(** The raw D12 findings, one per exported [val] that no program unit
    references, at its [.mli] line, sorted.  A module some program uses
    as a whole (a functor argument, an [include], a first-class module)
    uses every value it exports. *)
