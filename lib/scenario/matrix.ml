(* The generic matrix driver (DESIGN.md §12): expands a validated Spec
   into the cross product of its axes, resolves every cell against the
   scale presets into a Basalt_sim.Scenario, fans the flat cell × seed
   task list over an optional Pool (order-preserving, so tables and
   traces are bit-identical at any -j N), and renders the pivot axis, if
   any, as metric columns.  Aggregation goes through
   Basalt_experiments.Agg and the gossip workload through
   Basalt_experiments.Gossip_app.  Fig. 2, Fig. 3, the §4.3 SPS-failure
   and cost tables and the churn, robustness, robustness-net and
   broadcast experiments exist only as scenario files run by this
   driver; their quick-scale tables are pinned by golden files under
   test/golden/. *)

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
module Scale = Basalt_experiments.Scale
module Agg = Basalt_experiments.Agg
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

(* Spec.load rejects (rho ...) on an sps or classic cell. *)
let protocol_of ~v ~rho = function
  | Spec.Basalt -> Scenario.Basalt (Basalt_core.Config.make ~v ?rho ())
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

let scenario_of (spec : Spec.t) scale (s : Spec.settings) ~seed =
  let n = Option.value s.Spec.n ~default:(Scale.n scale) in
  let v = Option.value s.Spec.v ~default:(Scale.v scale) in
  let steps = Option.value s.Spec.steps ~default:(Scale.steps scale) in
  let protocol =
    match s.Spec.protocol with
    | Some p -> protocol_of ~v ~rho:s.Spec.rho p
    | None -> invalid_arg "Matrix: unbound protocol (Spec.load admits none)"
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
  Scenario.make ~name:spec.Spec.name ~n ?f:s.Spec.f ?force:s.Spec.force
    ?strategy:s.Spec.strategy ~protocol ~steps
    ?measure_every:s.Spec.measure_every ?sample_window:s.Spec.sample_window
    ?churn ?latency:s.Spec.latency ?loss:s.Spec.loss ?fault ~seed ()

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

type group = { g_scenario : Scenario.t; g_runs : run list }

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
  |> List.map (fun pairs ->
         let t = fst (List.hd pairs) in
         (t.labels, { g_scenario = t.scenario; g_runs = List.map snd pairs }))
  |> Sweep.chunks pivot_n
  |> List.map (fun cell_groups ->
         {
           row_labels = fst (row_key spec (fst (List.hd cell_groups)));
           groups =
             List.map
               (fun (labels, g) -> (snd (row_key spec labels), g))
               cell_groups;
         })

let gossip_summary r =
  match r.gossip with
  | Some s -> s
  | None -> invalid_arg "Matrix: gossip metric without (app ...)"

(* The mean over runs of [x] per correct node and round (τ), as the
   §4.3 budget counts. *)
let rate x runs =
  Report.float_cell
    (Agg.mean
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

let eval_metric (spec : Spec.t) metric (g : group) =
  let runs = g.g_runs in
  let mean_final field =
    Report.float_cell (Agg.mean (fun r -> field r.result.Runner.final) runs)
  in
  match (metric : Spec.metric) with
  | Spec.Time -> (
      let optimal = g.g_scenario.Scenario.f in
      match
        Agg.median_opt
          (List.map
             (fun r ->
               Measurements.convergence_time ~optimal ~within:spec.Spec.within
                 r.result.Runner.series)
             runs)
      with
      | Some t -> Report.float_cell t
      | None -> "no-convergence")
  | Spec.Samples_byz -> mean_final (fun p -> p.Measurements.sample_byz)
  | Spec.Delivered_sent ->
      let sent =
        Agg.sum (fun r -> r.result.Runner.transport.Engine.sent) runs
      in
      let delivered =
        Agg.sum (fun r -> r.result.Runner.transport.Engine.delivered) runs
      in
      Report.float_cell (float_of_int delivered /. float_of_int (max 1 sent))
  | Spec.Delivered ->
      Report.float_cell
        (Agg.mean (fun r -> (gossip_summary r).Gossip_app.delivered) runs)
  | Spec.T99 -> (
      match
        Agg.median_opt
          (List.map (fun r -> (gossip_summary r).Gossip_app.t99) runs)
      with
      | Some t -> Report.float_cell t
      | None -> "never")
  | Spec.Redundancy ->
      let dups =
        Agg.sum (fun r -> (gossip_summary r).Gossip_app.duplicates) runs
      in
      let dels =
        Agg.sum (fun r -> (gossip_summary r).Gossip_app.deliveries) runs
      in
      Report.float_cell (float_of_int dups /. float_of_int (max 1 dels))
  | Spec.Isolated | Spec.Isolated_frac ->
      mean_final (fun p -> p.Measurements.isolated)
  | Spec.View_byz -> mean_final (fun p -> p.Measurements.view_byz)
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
      let bytes field = Agg.sum (fun r -> field (bandwidth r)) runs in
      let adversary = bytes (fun b -> b.Runner.adversary_bytes) in
      let correct = bytes (fun b -> b.Runner.correct_bytes) in
      Report.float_cell
        (if correct = 0 then Float.nan
         else float_of_int adversary /. float_of_int correct)
  | Spec.Optimal -> Report.float_cell g.g_scenario.Scenario.f
  | Spec.Replacements ->
      (* The first seed's count: a group holds one run per seed. *)
      string_of_int (List.hd runs).result.Runner.nodes_churned

let columns (spec : Spec.t) rows =
  let arr = Array.of_list rows in
  let row_axes =
    if spec.Spec.pivoted then fst (split_last spec.Spec.axes)
    else spec.Spec.axes
  in
  let axis_cols =
    List.map
      (fun (ax : Spec.axis) ->
        {
          Report.header = ax.Spec.axis_name;
          cell =
            (fun i ->
              let label = List.assoc ax.Spec.axis_name arr.(i).row_labels in
              if ax.Spec.display_float then
                Report.float_cell (float_of_string label)
              else label);
        })
      row_axes
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
              cell =
                (fun i ->
                  eval_metric spec metric (List.assoc label arr.(i).groups));
            })
          labels)
      spec.Spec.metrics
  in
  (Array.length arr, axis_cols @ metric_cols)

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
  let rows, cols = columns spec (rows_of ~scale spec ts runs) in
  Output.emit ?csv ~rows cols;
  match trace with
  | None -> ()
  | Some path ->
      write_trace path ts runs;
      Output.line (Printf.sprintf "(trace written to %s)" path)
