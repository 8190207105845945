(* The generic matrix driver (DESIGN.md §12): expands a validated Spec
   into the cross product of its axes, resolves every cell against the
   scale presets into a Basalt_sim.Scenario, fans the flat cell × seed
   task list over an optional Pool (order-preserving, so tables and
   traces are bit-identical at any -j N), and renders the pivot axis, if
   any, as metric columns.  The gossip workload goes through
   Basalt_experiments.Gossip_app.  Every table-shaped experiment exists
   only as a committed scenario file run by this driver; their
   quick-scale tables are pinned by golden files under test/golden/. *)

module Scenario = Basalt_sim.Scenario
module Runner = Basalt_sim.Runner
module Measurements = Basalt_sim.Measurements
module Report = Basalt_sim.Report
module Churn = Basalt_sim.Churn
module Fault = Basalt_engine.Fault
module Pool = Basalt_parallel.Pool
module Obs = Basalt_obs.Obs
module Fit = Basalt_analysis.Fit
module Scale = Basalt_experiments.Scale
module Gossip_app = Basalt_experiments.Gossip_app
module Output = Basalt_experiments.Output

type task = {
  labels : (string * string) list;
  trace_extra : (string * Obs.value) list;
  scenario : Scenario.t;
}

(* ------------------------------------------------------------------ *)
(* Resolution: merged settings -> Scenario.t                           *)

let prefix_layout ~honest ~honest_prefixes ~attacker_prefixes id =
  if id < honest then id mod honest_prefixes
  else honest_prefixes + ((id - honest) mod attacker_prefixes)

let link_of (l : Spec.link_fault) =
  Fault.link ?loss:l.lf_loss ?dup:l.lf_dup ?reorder:l.lf_reorder
    ?reorder_window:l.lf_reorder_window ()

(* Window fractions scale with the run; 1/4- and 1/2-of-run windows
   resolve to the exact floats steps /. 4.0 and steps /. 2.0. *)
let fault_of ~n ~steps (forms : Spec.fault_form list) =
  let base = ref None and partitions = ref [] and outages = ref [] in
  List.iter
    (fun form ->
      match (form : Spec.fault_form) with
      | Spec.Link_fault l -> base := Some (link_of l)
      | Spec.Partition_fault { from_frac; until_frac } ->
          partitions :=
            Fault.partition ~from_time:(from_frac *. steps)
              ~until_time:(until_frac *. steps) (fun i -> i < n / 2)
            :: !partitions
      | Spec.Outage_fault { node; from_frac; until_frac } ->
          outages :=
            Fault.outage ~node ~from_time:(from_frac *. steps)
              ~until_time:(until_frac *. steps)
            :: !outages)
    forms;
  Fault.make ?base:!base ~partitions:(List.rev !partitions)
    ~outages:(List.rev !outages) ()

(* Graph metrics are derived from the spec, as obs is in run_tasks. *)
let scenario_of (spec : Spec.t) scale (s : Spec.settings) ~seed =
  let n = Option.value s.Spec.n ~default:(Scale.n scale) in
  let v = Option.value s.Spec.v ~default:(Scale.v scale) in
  let steps = Option.value s.Spec.steps ~default:(Scale.steps scale) in
  let name =
    match s.Spec.protocol with
    | Some name -> name
    | None -> invalid_arg "Matrix: unbound protocol (Spec.load admits none)"
  in
  let graph_metrics = Spec.needs spec Metric.Graph in
  let fault = Option.map (fault_of ~n ~steps) s.Spec.faults in
  let churn =
    Option.map
      (fun (c : Spec.churn) ->
        let start = Option.map (fun frac -> frac *. steps) c.churn_start_frac in
        Churn.make ?start ?style:c.churn_style ~rate:c.churn_rate ())
      s.Spec.churn
  in
  (* Spec.load admits only known names, and (rank ...) on basalt cells
     alone. *)
  let make ?backend () =
    Scenario.make ~name:spec.Spec.name ~n ?f:s.Spec.f ?force:s.Spec.force
      ?strategy:s.Spec.strategy
      ~protocol:
        (Result.get_ok
           (Scenario.protocol_of_name ~v ?rho:s.Spec.rho ?backend name))
      ~steps ?measure_every:s.Spec.measure_every ~graph_metrics ?churn
      ?latency:s.Spec.latency
      ?loss:s.Spec.loss ?fault ~seed ()
  in
  match s.Spec.rank with
  | Some (Spec.Prefix_diverse { honest_prefixes; attacker_prefixes }) ->
      (* The layout splits ids at the cell's correct count. *)
      let prefix_of =
        prefix_layout
          ~honest:(Scenario.num_correct (make ()))
          ~honest_prefixes ~attacker_prefixes
      in
      make ~backend:(Basalt_hashing.Rank.Prefix_diverse { prefix_of }) ()
  | Some Spec.Cheap | None -> make ()

(* ------------------------------------------------------------------ *)
(* Expansion                                                           *)

let trace_extra_of (spec : Spec.t) labels =
  List.filter_map
    (fun (ax : Spec.axis) ->
      Option.map
        (fun key ->
          let label = List.assoc ax.Spec.axis_name labels in
          let value =
            if ax.Spec.display_float then Obs.Float (float_of_string label)
            else Obs.Str label
          in
          (key, value))
        ax.Spec.trace_key)
    spec.Spec.axes

let seeds_of (spec : Spec.t) scale =
  Option.value spec.Spec.seeds ~default:(Scale.seeds scale)

let tasks ?(scale = Scale.Standard) (spec : Spec.t) =
  let seeds = seeds_of spec scale in
  List.concat_map
    (fun (labels, settings) ->
      let trace_extra = trace_extra_of spec labels in
      List.map
        (fun seed ->
          { labels; trace_extra; scenario = scenario_of spec scale settings ~seed })
        seeds)
    (Spec.cells scale spec)

(* ------------------------------------------------------------------ *)
(* Running                                                             *)

(* A run keeps its instrument registry when a metric reads counters
   from it, or when the caller wants its trace. *)
let run_tasks ?(scale = Scale.Standard) ?(trace = false) ?pool (spec : Spec.t)
    =
  let ts = tasks ~scale spec in
  let obs = trace || Spec.needs spec Metric.Counters in
  let runs =
    Pool.map ?pool
      (fun t ->
        match spec.Spec.app with
        | Some params ->
            let result, summary =
              Gossip_app.run ~params ~obs ~trace t.scenario
            in
            { Metric.result; gossip = Some summary }
        | None ->
            let result = Runner.run ~obs ~trace t.scenario in
            { Metric.result; gossip = None })
      ts
  in
  (ts, runs)

(* ------------------------------------------------------------------ *)
(* Rows and metric columns                                             *)

type row = {
  row_labels : (string * string) list;
  groups : (string * Metric.group) list;
}

let split_last xs =
  match List.rev xs with
  | last :: rev_init -> (List.rev rev_init, last)
  | [] -> invalid_arg "Matrix.split_last: empty list"

(* A row's labels and a group's key within it: the pivot coordinate
   moves from the labels to the key; a pivot-less cell keys its one
   group by "". *)
let row_key (spec : Spec.t) labels =
  if spec.Spec.pivoted then
    let init, (_, pivot_label) = split_last labels in
    (init, pivot_label)
  else (labels, "")

(* [chunks k xs] splits [xs] into consecutive groups of exactly [k], in
   order: the regrouping step after the flat Pool.map over the
   cell × seed batch. *)
let chunks k xs =
  let rec take k acc rest =
    if k = 0 then (List.rev acc, rest)
    else
      match rest with
      | x :: tl -> take (k - 1) (x :: acc) tl
      | [] -> invalid_arg "Matrix.chunks: list length not a multiple of k"
  in
  let rec go = function
    | [] -> []
    | xs ->
        let group, rest = take k [] xs in
        group :: go rest
  in
  if k <= 0 then invalid_arg "Matrix.chunks: k must be positive" else go xs

let rows_of ?(scale = Scale.Standard) (spec : Spec.t) ts runs =
  let per_seed = List.length (seeds_of spec scale) in
  let pivot_n =
    Option.fold ~none:1
      ~some:(fun p -> List.length (Spec.entries scale p))
      (Spec.pivot spec)
  in
  let paired = List.combine ts runs in
  chunks per_seed paired
  |> List.map2
       (fun (_, (settings : Spec.settings)) pairs ->
         let t = fst (List.hd pairs) in
         let g_prefixes =
           match settings.rank with
           | Some (Spec.Prefix_diverse p) ->
               Some (p.honest_prefixes, p.attacker_prefixes)
           | Some Spec.Cheap | None -> None
         in
         let g_runs = List.map snd pairs in
         (t.labels, { Metric.g_scenario = t.scenario; g_prefixes; g_runs }))
       (Spec.cells scale spec)
  |> chunks pivot_n
  |> List.map (fun cell_groups ->
         {
           row_labels = fst (row_key spec (fst (List.hd cell_groups)));
           groups =
             List.map
               (fun (labels, g) -> (snd (row_key spec labels), g))
               cell_groups;
         })

(* A group's measurement times, from its first run (every seed measures
   on the same schedule). *)
let times (g : Metric.group) =
  List.map (fun p -> p.Measurements.time)
    (Measurements.points (List.hd g.g_runs).result.Runner.series)

let scope (spec : Spec.t) row group =
  { Metric.within = spec.Spec.within; row = List.map snd row.groups; group }

(* The table's lines, each its labels and the typed value of a metric
   for a pivot label: one per row, or per row and measurement point
   under (rows time), where a "time" coordinate joins the labels; then
   the (reference ...) line. *)
let lines (spec : Spec.t) rows =
  let line ?point labels row =
    let value m l =
      Metric.eval ?point m (scope spec row (List.assoc l row.groups))
    in
    (labels, value)
  in
  let reference =
    match (spec.Spec.reference, rows) with
    | Some label, { groups = (_, g) :: _; _ } :: _ ->
        let axis = (List.hd spec.Spec.axes).Spec.axis_name in
        let h = Metric.reference g in
        [ ([ (axis, label) ], fun m _ -> Metric.of_histogram m h) ]
    | _ -> []
  in
  List.concat_map
    (fun row ->
      if spec.Spec.time_rows then
        List.mapi
          (fun i t ->
            line ~point:i
              (row.row_labels @ [ ("time", Printf.sprintf "%.17g" t) ])
              row)
          (times (snd (List.hd row.groups)))
      else [ line row.row_labels row ])
    rows
  @ reference

(* The lines and the metric columns of Spec.columns' header rule. *)
let layout spec rows =
  let pivot_labels =
    match rows with r :: _ -> List.map fst r.groups | [] -> []
  in
  (Array.of_list (lines spec rows), Spec.columns spec pivot_labels)

let value_of (arr, metric_cols) header =
  let m, label = List.assoc header metric_cols in
  fun i -> snd arr.(i) m label

let lookup spec rows = value_of (layout spec rows)

let columns (spec : Spec.t) rows =
  let ((arr, metric_cols) as l) = layout spec rows in
  let row_axes =
    if spec.Spec.pivoted then fst (split_last spec.Spec.axes)
    else spec.Spec.axes
  in
  (* A float label renders as a float cell; the reference row's label
     stays text. *)
  let label_col header ~float =
    {
      Report.header;
      cell =
        (fun i ->
          let label = List.assoc header (fst arr.(i)) in
          match float_of_string_opt label with
          | Some x when float -> Report.float_cell x
          | Some _ | None -> label);
    }
  in
  let axis_cols =
    List.map
      (fun (ax : Spec.axis) ->
        label_col ax.Spec.axis_name ~float:ax.Spec.display_float)
      row_axes
    @ if spec.Spec.time_rows then [ label_col "time" ~float:true ] else []
  in
  let metric_col (header, _) =
    let value = value_of l header in
    { Report.header; cell = (fun i -> Metric.render (value i)) }
  in
  (Array.length arr, axis_cols @ List.map metric_col metric_cols)

(* (fit M): one relaxation line per group, named by its coordinates. *)
let fit_lines (spec : Spec.t) (metric : Metric.t) rows =
  List.concat_map
    (fun row ->
      List.map
        (fun (label, g) ->
          let name =
            String.concat "/"
              (List.map snd row.row_labels
              @ if spec.Spec.pivoted then [ label ] else [])
          in
          let at i t =
            match Metric.eval ~point:i metric (scope spec row g) with
            | Metric.Float y -> Some (t, y)
            | Metric.Int _ | Metric.Bool _ | Metric.Missing _ -> None
          in
          match
            Fit.exponential_decay
              (List.filter_map Fun.id (List.mapi at (times g)))
          with
          | Some fit ->
              Printf.sprintf
                "%s: %s relaxes to %.4f with time constant tau = %.1f \
                 (half-life %.1f, r2 = %.2f)"
                name metric.keyword fit.Fit.y_inf fit.Fit.tau
                (Fit.half_life fit) fit.Fit.r_square
          | None ->
              Printf.sprintf
                "%s: already at its operating point (no decay to fit)" name)
        row.groups)
    rows

let run ?(scale = Scale.Standard) ?pool (spec : Spec.t) =
  let ts, runs = run_tasks ~scale ?pool spec in
  rows_of ~scale spec ts runs

(* ------------------------------------------------------------------ *)
(* Trace merging and printing                                          *)

let write_trace path ts runs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter2
        (fun t r ->
          match r.Metric.result.Runner.obs with
          | Some sink ->
              output_string oc (Obs.events_to_jsonl ~extra:t.trace_extra sink)
          | None -> ())
        ts runs)

let print ?(scale = Scale.Standard) ?csv ?trace ?pool (spec : Spec.t) =
  Output.line
    (match spec.Spec.title with
    | Some title ->
        Printf.sprintf "== %s  [scale=%s]" title (Scale.to_string scale)
    | None ->
        let seed_count = List.length (seeds_of spec scale) in
        Printf.sprintf "== matrix %s: %d cells x %d seed%s (scale %s)"
          spec.Spec.name
          (List.length (Spec.cells scale spec))
          seed_count
          (if seed_count = 1 then "" else "s")
          (Scale.to_string scale));
  let ts, runs = run_tasks ~scale ~trace:(Option.is_some trace) ?pool spec in
  let rows = rows_of ~scale spec ts runs in
  let nrows, cols = columns spec rows in
  Output.emit ?csv ~rows:nrows cols;
  List.iter Output.line spec.Spec.caption;
  Option.iter
    (fun metric -> List.iter Output.line (fit_lines spec metric rows))
    spec.Spec.fit;
  match trace with
  | None -> ()
  | Some path ->
      write_trace path ts runs;
      Output.line (Printf.sprintf "(trace written to %s)" path)
