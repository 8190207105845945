(** Typed scenario-matrix specifications (DESIGN.md §12).

    A spec is the parsed, validated form of a [(matrix ...)] file:
    shared base bindings, one or more named axes whose cross product is
    the condition grid, an optional pivot axis rendered as columns, and
    the metrics to report per pivot entry (or per cell, without a
    pivot).  Parsing and validation report
    every diagnostic as [file:line:col: message]; a spec that survives
    {!load} runs without further error handling in {!Matrix}. *)

type protocol = Basalt | Brahms | Sps | Classic

type side =
  | First_half  (** Nodes [i < n / 2] — the classic half-space cut. *)
  | First of int  (** Nodes [i < k]. *)

type link_fault = {
  lf_loss : Basalt_engine.Link.Loss.t option;
  lf_latency : Basalt_engine.Link.Latency.t option;
  lf_dup : float option;
  lf_reorder : float option;
  lf_reorder_window : float option;
}

type fault_form =
  | Link_fault of link_fault
      (** Applied to every directed pair ({!Basalt_engine.Fault.t}
          [base]). *)
  | Partition_fault of { from_frac : float; until_frac : float; side : side }
      (** A timed cut; the window is a fraction of the run so the file
          stays valid at every scale. *)
  | Outage_fault of { node : int; from_frac : float; until_frac : float }
      (** A timed per-node silence. *)

type churn_start =
  | Start_at of float  (** [(start T)]: an absolute time. *)
  | Start_frac of float  (** [(start-frac F)]: a fraction of the run. *)

type churn = {
  churn_rate : float;
  churn_start : churn_start option;
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
  protocol : protocol option;
  strategy : Basalt_adversary.Adversary.strategy option;
  latency : Basalt_engine.Link.Latency.t option;
  loss : Basalt_engine.Link.Loss.t option;
  faults : fault_form list option;
  churn : churn option;
  measure_every : float option;
  sample_window : int option;
  rank : rank option;  (** Basalt only. *)
}
(** One group of bindings; [None] fields fall back to the enclosing
    scope and ultimately to the {!Basalt_experiments.Scale} preset or
    {!Basalt_sim.Scenario.make} default. *)

val empty_settings : settings
(** All fields unbound. *)

val merge : settings -> settings -> settings
(** [merge base over] overrides [base] field-wise with the bound fields
    of [over]; fault plans and churn models replace wholesale. *)

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

type metric =
  | Time  (** Median convergence time; ["no-convergence"] cell on a
              non-majority. *)
  | Samples_byz  (** Mean Byzantine fraction of the sample stream. *)
  | Delivered_sent  (** Transport deliveries over sends. *)
  | Delivered  (** Gossip: mean delivered fraction (needs [(app ...)]). *)
  | T99  (** Gossip: median time-to-99%; ["never"] on a non-majority. *)
  | Redundancy  (** Gossip: duplicate frames per delivery. *)
  | Isolated  (** Mean fraction of isolated correct nodes at the end. *)
  | Isolated_frac  (** The same value as {!Isolated}, under its own
                       header. *)
  | View_byz  (** Mean Byzantine fraction of correct views at the end. *)
  | Ever_isolated  (** Whether any run isolated a correct node during
                       its second half. *)
  | Msgs_rate  (** Mean messages a correct node sends per round, from
                   the [<proto>.msgs_sent] counter. *)
  | Bytes_rate  (** Mean bytes a correct node sends per round, in the
                    §4.3 4-byte-identifier model (the transport
                    meter). *)
  | Wire_bytes_rate  (** Mean codec bytes a correct node sends per
                         round, from the [<proto>.bytes_sent]
                         counter. *)
  | Max_datagram  (** Largest payload over the runs, in bytes. *)
  | Fits_mtu  (** Whether {!Max_datagram} fits a 1500-byte MTU. *)
  | Adv_bytes_ratio  (** Adversary bytes over correct bytes, summed over
                         the runs. *)
  | Optimal  (** Cell-level: the cell's Byzantine fraction [f]. *)
  | Replacements  (** Cell-level: the first run's churned-node count. *)
  | Samples  (** Histogram metric: samples of the correct ids. *)
  | Tv_distance  (** Histogram metric. *)
  | Coeff_var  (** Histogram metric. *)
  | Max_over_mean  (** Histogram metric. *)
  | Prefix_share  (** Cell-level: A/(H+A) of the row's
                      [(rank (prefix-diverse H A))]. *)
  | Clustering  (** Graph metric: mean local clustering coefficient. *)
  | Mean_path  (** Graph metric: mean path length over correct nodes. *)
  | Indeg_spread  (** Graph metric: last minus first in-degree decile. *)

val metric_name : metric -> string
(** The metric's grammar keyword, also its column-header suffix (its
    whole header on a cell-level metric or in a pivot-less spec). *)

val cell_level : metric -> bool
(** A cell-level metric takes no pivot labels and renders as one
    unprefixed column, read from the cell's first pivot group. *)

val graph_metric : metric -> bool
(** A graph metric runs its spec's cells with graph metrics on. *)

type t = {
  name : string;  (** {!Basalt_sim.Scenario.t} name and CSV base name. *)
  title : string option;  (** Banner text; [None] keeps the default. *)
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
  within : float;  (** Convergence tolerance for {!Time} (default 0.25). *)
  app : Basalt_experiments.Gossip_app.params option;
  metrics : (metric * string list) list;
      (** Per metric, the pivot labels to report ([[]] = all). *)
  time_rows : bool;  (** [(rows time)]: one row per measurement point. *)
  reference : string option;
      (** [(reference LABEL)]: an ideal uniform sampler's row. *)
  fit : metric option;  (** [(fit M)]: a relaxation line per group. *)
  caption : string list;  (** Lines printed after the table. *)
}

val pivot : t -> axis option
(** The pivot axis, if any (validation guarantees it is last). *)

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
