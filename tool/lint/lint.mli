(** [basalt-lint] core: rule vocabulary, findings, suppression machinery
    (allowlist + pragmas), and the fast untyped tier (parsetree-only
    rules D1–D8).

    The linter is two-tier (DESIGN.md §6):

    - the {e untyped tier} (this module) parses each source file with
      [compiler-libs] and runs the syntactic, path-scoped rules D1–D8;
    - the {e typed tier} ({!Typed}) loads the [.cmt] files that
      [dune build @check] produces and runs the dataflow rules D9–D10
      on the typedtree, where identifiers resolve to real paths and
      expressions carry their types, plus the whole-program export
      check D12 over every unit at once;
    - D11 (stale suppressions) is computed by the {!Driver} from the
      suppression-usage accounting both tiers report.

    Rules:

    - {b D1} — no [Random] module references outside [lib/prng]: all
      randomness must flow from seeded [Basalt_prng.Rng] streams.
    - {b D2} — no wall-clock reads ([Unix.gettimeofday], [Unix.time],
      [Sys.time]) outside the checked-in allowlist.
    - {b D3} — no [Hashtbl.hash] / [Hashtbl.seeded_hash] anywhere: the
      polymorphic hash is not a stable protocol primitive.
    - {b D4} — no polymorphic compare/equality ([=], [<>], [compare],
      [min], [max], orderings, [List.mem]/[List.assoc]-style helpers)
      in [lib/proto], [lib/basalt_core], [lib/brahms], [lib/sps],
      unless one operand is manifestly primitive.
    - {b D5} — every [lib/] module has an [.mli], and every exported
      [val] carries a doc comment.
    - {b D6} — no direct console output in protocol libraries ([lib/]
      minus [lib/experiments]).
    - {b D7} — no concurrency primitives ([Domain], [Mutex],
      [Condition], [Atomic], [Semaphore]) outside [lib/parallel].
    - {b D8} — no [Basalt_obs] references outside [lib/obs] and the
      allowlisted instrumentation boundaries.
    - {b D9} {e (typed)} — no PRNG draw, trace emit, or accumulation
      that later feeds a PRNG/trace inside an unordered-iteration
      callback ([Hashtbl.fold]/[iter]); hash-bucket order must never
      become draw order (the PR 5 [run_eviction] bug class).
    - {b D10} {e (typed)} — a [Basalt_prng.Rng.t] value handed to two
      or more callees, or captured by a second closure, without an
      intervening [Rng.split]: every consumer owns its own stream.
    - {b D11} {e (driver)} — every [(* lint: allow *)] pragma and
      allowlist entry must suppress at least one finding per whole-tree
      run; stale suppressions are findings themselves.
    - {b D12} {e (typed, whole program)} — every top-level [val] of a
      [lib/] interface is referenced by a {e program}: [lib/] outside
      the defining module, [bin/], [bench/], [tool/] (lint fixtures
      excepted) or [examples/].  Tests do not count.  A module used as
      a whole (functor argument, [include], first-class module) uses
      all its values.  With a program source lacking its [.cmt], D12
      reports that one file and flags nothing else.

    Suppression: a comment containing [lint: allow D<k>] silences rule
    [D<k>] on the comment's lines and the line directly below;
    [tool/lint/allowlist.txt] lists [<rule> <path-or-dir/>] pairs for
    whole-file or whole-subtree exemptions.  D11 findings cannot be
    suppressed. *)

type rule = D1 | D2 | D3 | D4 | D5 | D6 | D7 | D8 | D9 | D10 | D11 | D12

val all_rules : rule list
(** All rules, in order. *)

val rule_name : rule -> string
(** [rule_name r] is ["D1"] … ["D12"]. *)

val rule_of_string : string -> rule option
(** [rule_of_string s] parses ["D1"] … ["D12"] (case-sensitive). *)

val rule_summary : rule -> string
(** One-line description, used in SARIF rule metadata and CLI usage. *)

val untyped_rules : rule list
(** The parsetree-tier rules (D1–D8). *)

val typed_rules : rule list
(** The typed-tree-tier rules (D9, D10, D12).  D11 belongs to neither
    tier: the driver derives it from suppression accounting. *)

type finding = {
  file : string;  (** Repo-relative path using [/] separators. *)
  line : int;  (** 1-based line of the offending node. *)
  rule : rule;  (** The rule violated. *)
  message : string;  (** Human-readable explanation. *)
}

val pp_finding : Format.formatter -> finding -> unit
(** [pp_finding ppf f] prints [file:line:rule: message] (the format
    asserted by the fixture tests and consumed by CI). *)

val sort_findings : finding list -> finding list
(** Deterministic order: file, then line, then rule name, then
    message. *)

type allowlist
(** Positional [(rule, path-prefix)] exemptions from
    [tool/lint/allowlist.txt]. *)

val empty_allowlist : allowlist

val allow_entries : allowlist -> (rule * string * int) list
(** [(rule, normalized path, 1-based source line)] per entry, in file
    order — the D11 audit keys entries by their position here. *)

val allowlist_of_lines : string list -> allowlist
(** [allowlist_of_lines lines] parses allowlist syntax: blank lines and
    [#] comments are skipped; every other line is [<rule> <path>] where
    a [<path>] ending in [/] exempts the whole subtree.  Paths are
    normalized (leading [./], duplicate [/] collapsed) before matching.
    @raise Failure on a malformed line, unknown rule, or duplicate
    entry. *)

val load_allowlist : string -> allowlist
(** [load_allowlist path] reads and parses the file at [path]; a
    missing file yields {!empty_allowlist}.  @raise Failure as
    {!allowlist_of_lines}. *)

val normalize_path : string -> string
(** Drops [.] and empty segments ([./lib//sim/] → [lib/sim/]),
    preserving a trailing [/]. *)

val allowlisted : allowlist -> rule -> string -> bool
(** Whether some entry exempts [rule] at the given repo-relative
    path. *)

type pragma = { p_rule : rule; p_start : int; p_end : int }
(** A [lint: allow D<k>] comment: rule plus the comment's line span. *)

exception Parse_error of string * int * string
(** [Parse_error (file, line, msg)]: the source could not be parsed. *)

val collect_pragmas : rel_path:string -> string -> pragma list
(** Lexes [source] and extracts suppression pragmas from its comments
    (a pragma-shaped string literal is not a suppression). *)

val pragma_covers : pragma -> rule -> int -> bool
(** Whether the pragma silences [rule] at the given line (its own lines
    and the line directly below). *)

val suppress :
  allow:allowlist ->
  pragmas:pragma list ->
  finding list ->
  finding list * (int * rule) list * int list
(** [suppress ~allow ~pragmas findings] filters suppressed findings and
    reports which suppressions fired: the kept findings, the used
    pragmas as [(p_start, rule)] pairs, and the used allowlist entries
    as indices into {!allow_entries} (both sorted, deduplicated).  Both
    suppression kinds are consulted for every finding so neither is
    reported stale when shadowed by the other.  D11 findings pass
    through unsuppressed. *)

(** {2 Untyped tier} *)

type parsed
(** A parsed compilation unit (implementation or interface).  Parsing
    touches [compiler-libs] global state and must stay on one domain;
    a [parsed] value is inert and may be analyzed from any domain. *)

val parse_source : rel_path:string -> string -> parsed * pragma list
(** Parses one unit and collects its pragmas.  [rel_path] selects
    [.ml] vs [.mli] syntax.  @raise Parse_error on a syntax error. *)

val analyze_parsed : rel_path:string -> parsed -> finding list
(** Raw (unsuppressed) D1–D8 findings; pure, domain-safe, sorted. *)

val read_file : string -> string
(** Reads a whole file as bytes. *)

val lint_source : rel_path:string -> allow:allowlist -> string -> finding list
(** [lint_source ~rel_path ~allow source] parses, analyzes, and
    suppresses one unit (untyped tier only) — the single-file
    convenience used by fixture tests and [--as].
    @raise Parse_error on a syntax error. *)

val lint_file : root:string -> rel_path:string -> allow:allowlist -> finding list
(** As {!lint_source}, reading [root/rel_path]. *)

val source_files : root:string -> string list
(** Every [.ml]/[.mli] under [lib/], [bin/], [bench/], [test/] below
    [root], as sorted repo-relative paths; [_build] and dotdirs are
    skipped. *)

val is_program : string -> bool
(** Whether a repo-relative path is program code for D12: under [lib/],
    [bin/], [bench/], [tool/] or [examples/], and not a lint fixture
    ([tool/lint/fixtures*]). *)

val program_sources : root:string -> string list
(** Every [.ml] below [root] that {!is_program} accepts, sorted. *)

val missing_mli_findings : string list -> finding list
(** Raw D5 findings for [lib/] modules without an [.mli], given the
    {!source_files} listing. *)

val in_dir : string -> string -> bool
(** [in_dir dir path] is true when [path] lies under [dir/]. *)
