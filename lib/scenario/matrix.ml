(* The generic matrix driver (DESIGN.md §12): expands a validated Spec
   into the cross product of its axes, resolves every cell against the
   scale presets into a Basalt_sim.Scenario, fans the flat cell × seed
   task list over an optional Pool (order-preserving, so tables and
   traces are bit-identical at any -j N), and renders the pivot axis, if
   any, as metric columns.  The gossip workload goes through
   Basalt_experiments.Gossip_app.  Fig. 2, Fig. 3, Fig. 4, the §4.3
   SPS-failure and cost tables and the churn, sybil, robustness,
   robustness-net, uniformity and broadcast experiments exist only as
   scenario files run by this driver; their quick-scale tables are
   pinned by golden files under test/golden/. *)

module Scenario = Basalt_sim.Scenario
module Runner = Basalt_sim.Runner
module Measurements = Basalt_sim.Measurements
module Report = Basalt_sim.Report
module Churn = Basalt_sim.Churn
module Sweep = Basalt_sim.Sweep
module Fault = Basalt_engine.Fault
module Engine = Basalt_engine.Engine
module Pool = Basalt_parallel.Pool
module Obs = Basalt_obs.Obs
module Rng = Basalt_prng.Rng
module Stats = Basalt_analysis.Stats
module Fit = Basalt_analysis.Fit
module Scale = Basalt_experiments.Scale
module Gossip_app = Basalt_experiments.Gossip_app
module Output = Basalt_experiments.Output

type run = { result : Runner.result; gossip : Gossip_app.summary option }

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

(* Spec.load rejects (rho ...) on an sps or classic cell, and (rank ...)
   on any but a basalt cell. *)
let protocol_of ~v ~rho ?backend = function
  | Spec.Basalt ->
      Scenario.Basalt (Basalt_core.Config.make ~v ?rho ?backend ())
  | Spec.Brahms ->
      Scenario.Brahms (Basalt_brahms.Brahms_config.make ~l:v ?rho ())
  | Spec.Sps -> Scenario.Sps (Basalt_sps.Sps.config ~l:v ())
  | Spec.Classic -> Scenario.Classic (Basalt_sps.Classic.config ~l:v ())

let link_of (l : Spec.link_fault) =
  Fault.link ?loss:l.lf_loss ?latency:l.lf_latency ?dup:l.lf_dup
    ?reorder:l.lf_reorder ?reorder_window:l.lf_reorder_window ()

(* Window fractions scale with the run; 1/4- and 1/2-of-run windows
   resolve to the exact floats steps /. 4.0 and steps /. 2.0. *)
let fault_of ~n ~steps (forms : Spec.fault_form list) =
  let base = ref None and partitions = ref [] and outages = ref [] in
  List.iter
    (fun form ->
      match (form : Spec.fault_form) with
      | Spec.Link_fault l -> base := Some (link_of l)
      | Spec.Partition_fault { from_frac; until_frac; side } ->
          let side =
            match side with
            | Spec.First_half -> fun i -> i < n / 2
            | Spec.First k -> fun i -> i < k
          in
          partitions :=
            Fault.partition ~from_time:(from_frac *. steps)
              ~until_time:(until_frac *. steps) side
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
  let protocol =
    match s.Spec.protocol with
    | Some p -> p
    | None -> invalid_arg "Matrix: unbound protocol (Spec.load admits none)"
  in
  let graph_metrics =
    List.exists Spec.graph_metric
      (Option.to_list spec.Spec.fit @ List.map fst spec.Spec.metrics)
  in
  let fault = Option.map (fault_of ~n ~steps) s.Spec.faults in
  let churn =
    Option.map
      (fun (c : Spec.churn) ->
        let start =
          Option.map
            (function
              | Spec.Start_at t -> t | Spec.Start_frac frac -> frac *. steps)
            c.churn_start
        in
        Churn.make ?start ?style:c.churn_style ~rate:c.churn_rate ())
      s.Spec.churn
  in
  let make ?backend () =
    Scenario.make ~name:spec.Spec.name ~n ?f:s.Spec.f ?force:s.Spec.force
      ?strategy:s.Spec.strategy
      ~protocol:(protocol_of ~v ~rho:s.Spec.rho ?backend protocol)
      ~steps ?measure_every:s.Spec.measure_every ~graph_metrics
      ?sample_window:s.Spec.sample_window ?churn ?latency:s.Spec.latency
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
  let obs =
    trace
    || List.exists
         (fun (m, _) -> m = Spec.Msgs_rate || m = Spec.Wire_bytes_rate)
         spec.Spec.metrics
  in
  let runs =
    Pool.map ?pool
      (fun t ->
        match spec.Spec.app with
        | Some params ->
            let result, summary =
              Gossip_app.run ~params ~obs ~trace t.scenario
            in
            { result; gossip = Some summary }
        | None -> { result = Runner.run ~obs ~trace t.scenario; gossip = None })
      ts
  in
  (ts, runs)

(* ------------------------------------------------------------------ *)
(* Rows and metric columns                                             *)

type group = {
  g_scenario : Scenario.t;
  g_settings : Spec.settings;
  g_runs : run list;
}

type row = { row_labels : (string * string) list; groups : (string * group) list }

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

let rows_of ?(scale = Scale.Standard) (spec : Spec.t) ts runs =
  let per_seed = List.length (seeds_of spec scale) in
  let pivot_n =
    Option.fold ~none:1
      ~some:(fun p -> List.length (Spec.entries scale p))
      (Spec.pivot spec)
  in
  let paired = List.combine ts runs in
  Sweep.chunks per_seed paired
  |> List.map2
       (fun (_, g_settings) pairs ->
         let t = fst (List.hd pairs) in
         let g_runs = List.map snd pairs in
         (t.labels, { g_scenario = t.scenario; g_settings; g_runs }))
       (Spec.cells scale spec)
  |> Sweep.chunks pivot_n
  |> List.map (fun cell_groups ->
         {
           row_labels = fst (row_key spec (fst (List.hd cell_groups)));
           groups =
             List.map
               (fun (labels, g) -> (snd (row_key spec labels), g))
               cell_groups;
         })

let mean f xs =
  List.fold_left (fun acc x -> acc +. f x) 0.0 xs /. float_of_int (List.length xs)

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* Majority rule: the median only when most runs produced a value
   (upper median for even counts); otherwise the cell is "did not
   converge". *)
let median_opt times =
  let converged = List.filter_map Fun.id times in
  if 2 * List.length converged < List.length times + 1 then None
  else
    let sorted = List.sort Float.compare converged in
    Some (List.nth sorted (List.length sorted / 2))

type histogram_stats = {
  samples : int;
  tv_distance : float;
  coeff_var : float;
  max_over_mean : float;
}

(* With no samples every float is nan: 0/0 in [tv], and a zero mean. *)
let histogram_stats ~correct hist =
  let counts = Array.sub hist 0 correct in
  let total = float_of_int (Array.fold_left ( + ) 0 counts) in
  let uniform = 1.0 /. float_of_int correct in
  let tv =
    Array.fold_left
      (fun acc c -> acc +. Float.abs ((float_of_int c /. total) -. uniform))
      0.0 counts
  in
  let floats = Array.map float_of_int counts in
  let mean = Stats.mean floats in
  let over_mean x = if mean = 0.0 then Float.nan else x /. mean in
  {
    samples = int_of_float total;
    tv_distance = 0.5 *. tv;
    coeff_var = over_mean (Stats.stddev floats);
    max_over_mean = over_mean (snd (Stats.min_max floats));
  }

(* The group's sample histograms summed over its runs, over its correct
   ids. *)
let group_histogram g =
  let hists = List.map (fun r -> r.result.Runner.sample_histogram) g.g_runs in
  histogram_stats
    ~correct:(Scenario.num_correct g.g_scenario)
    (List.fold_left (Array.map2 ( + )) (List.hd hists) (List.tl hists))

(* The (reference ...) row: an ideal uniform sampler drawing as many
   samples as the first group did (at least one) over its correct
   ids. *)
let reference_histogram g =
  let correct = Scenario.num_correct g.g_scenario in
  let rng = Rng.create ~seed:7 in
  let hist = Array.make correct 0 in
  for _ = 1 to max 1 (group_histogram g).samples do
    let i = Rng.int rng correct in
    hist.(i) <- hist.(i) + 1
  done;
  histogram_stats ~correct hist

let histogram_cell (h : histogram_stats) (metric : Spec.metric) =
  match metric with
  | Spec.Samples -> string_of_int h.samples
  | Spec.Tv_distance -> Report.float_cell h.tv_distance
  | Spec.Coeff_var -> Report.float_cell h.coeff_var
  | Spec.Max_over_mean -> Report.float_cell h.max_over_mean
  | _ -> invalid_arg "Matrix: not a histogram metric"

(* A group's measurement times, from its first run (every seed measures
   on the same schedule). *)
let times g =
  List.map (fun p -> p.Measurements.time)
    (Measurements.points (List.hd g.g_runs).result.Runner.series)

(* The mean over runs of a per-point metric at measurement point [i], or
   at the final measurement; [None] when a run did not measure it. *)
let point_mean ?point (metric : Spec.metric) runs =
  let value (p : Measurements.point) =
    match metric with
    | Spec.Samples_byz -> Some p.sample_byz
    | Spec.Isolated | Spec.Isolated_frac -> Some p.isolated
    | Spec.View_byz -> Some p.view_byz
    | Spec.Clustering -> p.clustering
    | Spec.Mean_path -> p.mean_path
    | Spec.Indeg_spread -> p.indegree_spread
    | _ -> invalid_arg "Matrix: not a per-point metric"
  in
  let values =
    List.map
      (fun r ->
        value
          (match point with
          | None -> r.result.Runner.final
          | Some i -> List.nth (Measurements.points r.result.Runner.series) i))
      runs
  in
  if List.mem None values then None else Some (mean Option.get values)

let gossip_summary r =
  match r.gossip with
  | Some s -> s
  | None -> invalid_arg "Matrix: gossip metric without (app ...)"

(* The mean over runs of [x] per correct node and round (τ), as the
   §4.3 budget counts. *)
let rate x runs =
  Report.float_cell
    (mean
       (fun r ->
         let s = r.result.Runner.scenario in
         x r
         /. (float_of_int (Scenario.num_correct s)
            *. (s.Scenario.steps /. Scenario.tau s)))
       runs)

(* Every correct-node send passes through Basalt_codec.Metered.send, so
   <proto>.msgs_sent equals the transport meter's correct messages,
   while <proto>.bytes_sent costs each datagram with the real codec
   (8-byte identifiers and header).  run_tasks keeps the registry. *)
let counter suffix r =
  let name = Scenario.protocol_name r.result.Runner.scenario ^ "." ^ suffix in
  let sink = Option.get r.result.Runner.obs in
  float_of_int (Obs.Counter.value (Obs.counter sink name))

let bandwidth r = r.result.Runner.bandwidth

let max_datagram runs =
  List.fold_left (fun m r -> max m (bandwidth r).Runner.max_datagram) 0 runs

(* [point] selects a measurement point under (rows time); a cell-level
   metric may read the whole [row]. *)
let eval_metric (spec : Spec.t) metric ?point row (g : group) =
  let runs = g.g_runs in
  let median ~none f =
    Option.fold ~none ~some:Report.float_cell (median_opt (List.map f runs))
  in
  let ratio num den =
    Report.float_cell
      (float_of_int (sum num runs) /. float_of_int (max 1 (sum den runs)))
  in
  match (metric : Spec.metric) with
  | Spec.Time ->
      median ~none:"no-convergence" (fun r ->
          Measurements.convergence_time ~optimal:g.g_scenario.Scenario.f
            ~within:spec.Spec.within r.result.Runner.series)
  | Spec.Samples_byz | Spec.Isolated | Spec.Isolated_frac | Spec.View_byz
  | Spec.Clustering | Spec.Mean_path | Spec.Indeg_spread -> (
      match point_mean ?point metric runs with
      | Some x -> Report.float_cell x
      | None -> "-")
  | Spec.Delivered_sent ->
      ratio
        (fun r -> r.result.Runner.transport.Engine.delivered)
        (fun r -> r.result.Runner.transport.Engine.sent)
  | Spec.Delivered ->
      Report.float_cell
        (mean (fun r -> (gossip_summary r).Gossip_app.delivered) runs)
  | Spec.T99 -> median ~none:"never" (fun r -> (gossip_summary r).Gossip_app.t99)
  | Spec.Redundancy ->
      ratio
        (fun r -> (gossip_summary r).Gossip_app.duplicates)
        (fun r -> (gossip_summary r).Gossip_app.deliveries)
  | Spec.Ever_isolated ->
      string_of_bool
        (List.exists (fun r -> r.result.Runner.ever_isolated_after_half) runs)
  | Spec.Msgs_rate -> rate (counter "msgs_sent") runs
  | Spec.Bytes_rate ->
      rate (fun r -> float_of_int (bandwidth r).Runner.correct_bytes) runs
  | Spec.Wire_bytes_rate -> rate (counter "bytes_sent") runs
  | Spec.Max_datagram -> string_of_int (max_datagram runs)
  | Spec.Fits_mtu -> string_of_bool (max_datagram runs <= 1500)
  | Spec.Adv_bytes_ratio ->
      let bytes field = sum (fun r -> field (bandwidth r)) runs in
      let adversary = bytes (fun b -> b.Runner.adversary_bytes) in
      let correct = bytes (fun b -> b.Runner.correct_bytes) in
      Report.float_cell
        (if correct = 0 then Float.nan
         else float_of_int adversary /. float_of_int correct)
  | Spec.Optimal -> Report.float_cell g.g_scenario.Scenario.f
  | Spec.Replacements ->
      (* The first seed's count: a group holds one run per seed. *)
      string_of_int (List.hd runs).result.Runner.nodes_churned
  | Spec.Samples | Spec.Tv_distance | Spec.Coeff_var | Spec.Max_over_mean ->
      histogram_cell (group_histogram g) metric
  | Spec.Prefix_share ->
      let share (_, g) =
        match g.g_settings.Spec.rank with
        | Some (Spec.Prefix_diverse { honest_prefixes = h; attacker_prefixes = a })
          ->
            Some (float_of_int a /. float_of_int (h + a))
        | Some Spec.Cheap | None -> None
      in
      Report.float_cell
        (Option.value (List.find_map share row.groups) ~default:Float.nan)

(* The table's lines, each its labels and a renderer of a metric for a
   pivot label: one per row, or per row and measurement point under
   (rows time), where a "time" coordinate joins the labels; then the
   (reference ...) line. *)
let lines (spec : Spec.t) rows =
  let line ?point labels row =
    (labels, fun m l -> eval_metric spec m ?point row (List.assoc l row.groups))
  in
  let reference =
    match (spec.Spec.reference, rows) with
    | Some label, { groups = (_, g) :: _; _ } :: _ ->
        let axis = (List.hd spec.Spec.axes).Spec.axis_name in
        let h = reference_histogram g in
        [ ([ (axis, label) ], fun m _ -> histogram_cell h m) ]
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

let columns (spec : Spec.t) rows =
  let arr = Array.of_list (lines spec rows) in
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
  let all_pivot_labels =
    match rows with r :: _ -> List.map fst r.groups | [] -> []
  in
  let metric_cols =
    List.concat_map
      (fun (metric, labels) ->
        (* A cell-level metric, or any metric without a pivot, is one
           unprefixed column read from the row's first group. *)
        let unprefixed = Spec.cell_level metric || not spec.Spec.pivoted in
        let labels =
          match (labels, all_pivot_labels) with
          | _, first :: _ when unprefixed -> [ first ]
          | [], _ -> all_pivot_labels
          | ls, _ -> ls
        in
        List.map
          (fun label ->
            {
              Report.header =
                (if unprefixed then Spec.metric_name metric
                 else Printf.sprintf "%s_%s" label (Spec.metric_name metric));
              cell = (fun i -> snd arr.(i) metric label);
            })
          labels)
      spec.Spec.metrics
  in
  (Array.length arr, axis_cols @ metric_cols)

(* (fit M): one relaxation line per group, named by its coordinates. *)
let fit_lines (spec : Spec.t) metric rows =
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
            Option.map (fun y -> (t, y)) (point_mean ~point:i metric g.g_runs)
          in
          match
            Fit.exponential_decay
              (List.filter_map Fun.id (List.mapi at (times g)))
          with
          | Some fit ->
              Printf.sprintf
                "%s: %s relaxes to %.4f with time constant tau = %.1f \
                 (half-life %.1f, r2 = %.2f)"
                name (Spec.metric_name metric) fit.Fit.y_inf fit.Fit.tau
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
          match r.result.Runner.obs with
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
