(** The scenario metric table (DESIGN.md §12): one record per
    [(metrics ...)] keyword, from which {!Spec} and {!Matrix} derive
    every metric decision.  A record holds closures: compare metrics by
    [keyword], never with [=]. *)

type run = {
  result : Basalt_sim.Runner.result;
  gossip : Basalt_experiments.Gossip_app.summary option;
      (** Present exactly when the spec mounts [(app (gossip ...))]. *)
}

type group = {
  g_scenario : Basalt_sim.Scenario.t;
      (** The cell's resolved scenario (first seed) — the source of
          per-cell parameters such as [f] for convergence targets. *)
  g_prefixes : (int * int) option;
      (** [(H, A)] of the cell's [(rank (prefix-diverse H A))]. *)
  g_runs : run list;  (** One run per seed. *)
}

type value =
  | Float of float
  | Int of int
  | Bool of bool
  | Missing of string
      (** No value, and why: ["no-convergence"] ([time]), ["never"]
          ([t99]), ["none"] ([model_B1]: Eq. 16 has no stable root) or
          ["-"] (a per-point value a run did not measure). *)

val render : value -> string
(** [render v] is [v]'s table cell, the last step: floats through
    {!Basalt_sim.Report.float_cell} (NaN prints [-]), ints and bools by
    [string_of_int]/[string_of_bool], a missing value as its reason. *)

type histogram_stats = {
  samples : int;  (** Samples of the counted ids. *)
  tv_distance : float;  (** Total-variation distance from uniform. *)
  coeff_var : float;  (** Coefficient of variation of the counts. *)
  max_over_mean : float;  (** Largest count over the mean count. *)
}

(* lint: allow D12 — test seam: the statistics of hand-built
   histograms, which runs only produce at random. *)
val histogram_stats : correct:int -> int array -> histogram_stats
(** [histogram_stats ~correct hist] is the histogram metrics over the
    first [correct] entries of [hist]; the float fields are [nan] when
    those entries are all zero. *)

val reference : group -> histogram_stats
(** [reference g] is the [(reference LABEL)] line's statistics: an ideal
    uniform sampler, [Rng.create ~seed:7], drawing as many samples as
    [g] (at least one) over [g]'s correct ids. *)

type level =
  | Run  (** Over a group's runs: a [<label>_<keyword>] column per label. *)
  | Cell  (** One unprefixed column, read from the row's first group. *)
  | Row  (** One unprefixed column, read from the whole row. *)

type need =
  | Counters  (** The runs keep their instrument registry. *)
  | Graph  (** The runs measure graph metrics. *)
  | Gossip  (** The spec mounts [(app (gossip ...))]. *)

type scope = {
  within : float;  (** The spec's [(within ...)] band, for [time]. *)
  row : group list;  (** The row's groups, in pivot order. *)
  group : group;  (** The group evaluated. *)
}

type source =
  | Point of (Basalt_sim.Measurements.point -> float option)
      (** Per-point: the mean over runs at a measurement point; ["-"]
          when a run did not measure it. *)
  | Histogram of (histogram_stats -> value)
      (** Over the group's sample histogram summed over its runs. *)
  | Scope of (scope -> value)

type t = {
  keyword : string;  (** Grammar keyword and column-header suffix. *)
  level : level;
  needs : need list;
  source : source;
}

val all : t list
(** The table, in the order the unknown-metric diagnostic lists it. *)

val find : string -> t option
(** [find keyword] is the metric named [keyword]. *)

val eval : ?point:int -> t -> scope -> value
(** [eval m scope] is [m] over [scope]; [point] selects a [Point]
    metric's measurement point (default: the final one). *)

val of_histogram : t -> histogram_stats -> value
(** [of_histogram m h] is a [Histogram] metric over [h]; [Missing "-"]
    for any other. *)
