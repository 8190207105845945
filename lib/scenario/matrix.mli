(** The generic scenario-matrix driver (DESIGN.md §12).

    Expands a validated {!Spec.t} into the cross product of its axes
    (file order, pivot innermost, seeds innermost of all), resolves
    every cell against the {!Basalt_experiments.Scale} presets into a
    {!Basalt_sim.Scenario.t}, runs the flat task list — through
    {!Basalt_experiments.Gossip_app} when the spec mounts an app —
    over an optional {!Basalt_parallel.Pool}, and renders one table
    row per non-pivot cell with the pivot's entries as metric columns
    (or, without a pivot, one row per cell).  A spec whose metrics
    {!Metric.need} counters runs every cell with its instrument
    registry, and one whose metrics need graph metrics runs with them
    on.
    [Pool.map] preserves task order, so tables, CSVs and merged traces
    are bit-identical at any [-j N].

    Every committed [scenarios/*.scn] file with a [(doc ...)] line
    defines the [repro] target of its name; their quick-scale tables
    are pinned by golden files under [test/golden/]. *)

type task = {
  labels : (string * string) list;
      (** Matrix coordinates: (axis name, entry label), in axis order. *)
  trace_extra : (string * Basalt_obs.Obs.value) list;
      (** Trace tags from the axes' [trace-key] attributes. *)
  scenario : Basalt_sim.Scenario.t;
}

(* lint: allow D12 — test seam: resolves every cell of a committed file
   without running it, which test_scenario pins at all three scales. *)
val tasks : ?scale:Basalt_experiments.Scale.t -> Spec.t -> task list
(** [tasks spec] is the expanded cell × seed list in deterministic
    order: axes nest in file order, seeds innermost. *)

type row = {
  row_labels : (string * string) list;  (** Non-pivot coordinates. *)
  groups : (string * Metric.group) list;
      (** Per pivot label, in axis order; without a pivot, the cell's one
          group under [""]. *)
}

(* lint: allow D12 — test seam: the typed rows behind print's table,
   compared at -j 1 and -j N and against paper bounds. *)
val run :
  ?scale:Basalt_experiments.Scale.t ->
  ?pool:Basalt_parallel.Pool.t ->
  Spec.t ->
  row list
(** [run spec] executes every task of {!tasks} (in task order, whatever
    the pool's parallelism) and regroups the flat results into one row
    per non-pivot cell (per cell, without a pivot). *)

(* lint: allow D12 — test seam: a table cell as a typed value, which
   the tests bound and compare bit for bit. *)
val lookup : Spec.t -> row list -> string -> int -> Metric.value
(** [lookup spec rows header i] is metric column [header]'s value on
    table line [i], as {!columns} renders it (apply it to [spec] and
    [rows] once).  Raises [Not_found] if [header] is no metric column. *)

(* lint: allow D12 — test seam: the rendered table's columns, whose
   headers and line count the tests pin. *)
val columns : Spec.t -> row list -> int * Basalt_sim.Report.column list
(** [columns spec rows] is the line count and the rendered table: one
    column per non-pivot axis, then {!Spec.columns}, each cell rendered
    from {!lookup}.  [(rows time)] makes a line per row and measurement
    point, with a [time] column; [(reference L)] appends the line of
    {!Metric.reference} over the first row's first group. *)

(* lint: allow D12 — test seam: the (rank (prefix-diverse H A)) address
   map, which only shapes rank values no output shows. *)
val prefix_layout :
  honest:int -> honest_prefixes:int -> attacker_prefixes:int -> int -> int
(** [prefix_layout ~honest ~honest_prefixes ~attacker_prefixes id] is
    the address map of [(rank (prefix-diverse H A))]: ids below
    [honest] spread round-robin over [honest_prefixes]; the others cycle
    over [attacker_prefixes] prefixes of their own. *)

val print :
  ?scale:Basalt_experiments.Scale.t ->
  ?csv:string ->
  ?trace:string ->
  ?pool:Basalt_parallel.Pool.t ->
  Spec.t ->
  unit
(** [print spec] runs the matrix and prints its table under a banner
    ([== TITLE  \[scale=S\]] when the spec has a title), then its
    [(caption ...)] lines and [(fit ...)] lines; [csv] also
    writes the rows as CSV, [trace] dumps the merged deterministic
    JSONL event trace of every run, tagged with each axis's
    [trace-key], in task order (byte-identical at any [-j N]). *)
