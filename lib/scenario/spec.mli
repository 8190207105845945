(** Typed scenario-matrix specifications (DESIGN.md §12).

    A spec is the parsed, validated form of a [(matrix ...)] file:
    shared base bindings, one or more named axes whose cross product is
    the condition grid, an optional pivot axis rendered as columns, and
    the metrics to report per pivot entry (or per cell, without a
    pivot).  Parsing and validation report
    every diagnostic as [file:line:col: message]; a spec that survives
    {!load} runs without further error handling in {!Matrix}. *)

type link_fault = {
  lf_loss : Basalt_engine.Link.Loss.t option;
  lf_dup : float option;
  lf_reorder : float option;
  lf_reorder_window : float option;
}

type fault_form =
  | Link_fault of link_fault
      (** Applied to every directed pair ({!Basalt_engine.Fault.t}
          [base]). *)
  | Partition_fault of { from_frac : float; until_frac : float }
      (** A timed cut between nodes [i < n / 2] and the rest; the window
          is a fraction of the run so the file stays valid at every
          scale. *)
  | Outage_fault of { node : int; from_frac : float; until_frac : float }
      (** A timed per-node silence. *)

type churn = {
  churn_rate : float;
  churn_start_frac : float option;
      (** [(start-frac F)]: churn starts a fraction [F] into the run. *)
  churn_style : Basalt_sim.Churn.style option;
}

(** A Basalt rank backend: [(rank cheap)], the default, or [(rank
    (prefix-diverse H A))] over {!Matrix.prefix_layout}. *)
type rank =
  | Cheap
  | Prefix_diverse of { honest_prefixes : int; attacker_prefixes : int }

type settings = {
  n : int option;
  v : int option;
  f : float option;
  force : float option;
  rho : float option;  (** Basalt/Brahms sampling rate. *)
  steps : float option;
  protocol : string option;
      (** One of {!Basalt_sim.Scenario.protocol_names}. *)
  strategy : Basalt_adversary.Adversary.strategy option;
  latency : Basalt_engine.Link.Latency.t option;
  loss : Basalt_engine.Link.Loss.t option;
  faults : fault_form list option;
  churn : churn option;
  measure_every : float option;
  rank : rank option;  (** Basalt only. *)
}
(** One group of bindings; [None] fields fall back to the enclosing
    scope and ultimately to the {!Basalt_experiments.Scale} preset or
    {!Basalt_sim.Scenario.make} default. *)

type entry = { label : string; bindings : settings }

(** A [(sweep P)] axis: its entries are the scale preset's values of
    [P] ({!Basalt_experiments.Scale}), so they change with [-s]. *)
type sweep =
  | Sweep_f  (** [(sweep f)]: [Scale.byzantine_fractions]. *)
  | Sweep_force  (** [(sweep force)]: [Scale.forces]. *)
  | Sweep_rho  (** [(sweep rho)]: [Scale.sampling_rates]. *)
  | Sweep_v  (** [(sweep v)]: [Scale.view_sizes]. *)
  | Sweep_sybils  (** [(sweep sybils)]: [Scale.sybil_networks], n and f. *)

type axis = {
  axis_name : string;  (** Also the report column header. *)
  trace_key : string option;
      (** When set, traces tag each event with [key: label]. *)
  display_float : bool;
      (** Render labels through {!Basalt_sim.Report.float_cell} (and
          tag traces with a float, not a string).  Always set on a
          sweep axis. *)
  entries : entry list;  (** Empty on a sweep axis. *)
  sweep : sweep option;
}

val entries : Basalt_experiments.Scale.t -> axis -> entry list
(** [entries scale ax] is [ax]'s entries at [scale]: the written ones,
    or a sweep axis's preset values labelled with [%g]. *)

type t = {
  name : string;  (** {!Basalt_sim.Scenario.t} name and CSV base name. *)
  title : string option;  (** Banner text; [None] keeps the default. *)
  doc : string option;
      (** [(doc "...")]: the [repro --help] line of the target named
          [name]; a committed file with one is a [repro] target.  Never
          printed by {!Matrix}. *)
  base : settings;
  at_scale : (Basalt_experiments.Scale.t * settings) list;
      (** [(at-scale S ...)]: bindings applied over [base] at scale [S]
          only (axis entries still override them). *)
  seeds : int list option;  (** [None]: the scale preset's seed list. *)
  axes : axis list;  (** In file order. *)
  pivoted : bool;
      (** [(pivot ...)] was given: the last axis renders as metric
          columns.  Without it every axis is a row column and each cell
          is one row. *)
  within : float;  (** Convergence band for [time] (default 0.25). *)
  app : Basalt_experiments.Gossip_app.params option;
  metrics : (Metric.t * string list) list;
      (** Per metric, the pivot labels to report ([[]] = all). *)
  time_rows : bool;  (** [(rows time)]: one row per measurement point. *)
  reference : string option;
      (** [(reference LABEL)]: an ideal uniform sampler's row. *)
  fit : Metric.t option;  (** [(fit M)]: a relaxation line per group. *)
  caption : string list;  (** Lines printed after the table. *)
}

val pivot : t -> axis option
(** The pivot axis, if any (validation guarantees it is last). *)

val columns : t -> string list -> (string * (Metric.t * string)) list
(** [columns spec pivot_labels] is the header rule: each metric column
    as its header, metric and pivot label.  A metric is one [<keyword>]
    column on the first label when it is cell- or row-level or [spec]
    has no pivot, else one [<label>_<keyword>] column per listed label
    (all when none is listed).  {!load} rejects duplicate headers. *)

val needs : t -> Metric.need -> bool
(** [needs spec need] holds when a metric of [spec], or its [(fit ...)]
    metric, needs [need]. *)

val cells :
  Basalt_experiments.Scale.t -> t -> ((string * string) list * settings) list
(** [cells scale spec] is the condition grid at [scale]: the cross
    product of the axes in file order, the last innermost, each cell with
    its (axis name, label) coordinates and its merged settings (base,
    then the scale's [at-scale] bindings, then each axis entry). *)

val slug : t -> string
(** [name] with every non-alphanumeric byte replaced by ['_'] — the CSV
    file base name ([robustness-net] writes [robustness_net.csv]). *)

val of_string : ?file:string -> string -> (t, string) result
(** [of_string src] parses and validates a matrix; errors render as
    ["file:line:col: message"] ([file] defaults to ["<string>"]). *)

val load : string -> (t, [ `Unreadable of string | `Invalid of string ]) result
(** [load path] reads, parses and validates [path].  [`Unreadable]
    carries the I/O error, [`Invalid] the positioned diagnostic. *)
