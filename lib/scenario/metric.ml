(* The scenario metric table (DESIGN.md §12): one record per (metrics
   ...) keyword.  Spec and Matrix derive every metric decision from it;
   evaluation returns a typed value that Matrix renders last. *)

module Scenario = Basalt_sim.Scenario
module Runner = Basalt_sim.Runner
module Measurements = Basalt_sim.Measurements
module Engine = Basalt_engine.Engine
module Obs = Basalt_obs.Obs
module Rng = Basalt_prng.Rng
module Stats = Basalt_analysis.Stats
module Model = Basalt_analysis.Model
module Gossip_app = Basalt_experiments.Gossip_app

type run = { result : Runner.result; gossip : Gossip_app.summary option }

type group = {
  g_scenario : Scenario.t;
  g_prefixes : (int * int) option;
  g_runs : run list;
}

type value = Float of float | Int of int | Bool of bool | Missing of string

let render = function
  | Float x -> Basalt_sim.Report.float_cell x
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b
  | Missing reason -> reason

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

let reference g =
  let correct = Scenario.num_correct g.g_scenario in
  let rng = Rng.create ~seed:7 in
  let hist = Array.make correct 0 in
  for _ = 1 to max 1 (group_histogram g).samples do
    let i = Rng.int rng correct in
    hist.(i) <- hist.(i) + 1
  done;
  histogram_stats ~correct hist

type level = Run | Cell | Row
type need = Counters | Graph | Gossip
type scope = { within : float; row : group list; group : group }

type source =
  | Point of (Measurements.point -> float option)
  | Histogram of (histogram_stats -> value)
  | Scope of (scope -> value)

type t = { keyword : string; level : level; needs : need list; source : source }

let mean f xs =
  List.fold_left (fun acc x -> acc +. f x) 0.0 xs
  /. float_of_int (List.length xs)

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* Majority rule: the median only when most runs produced a value
   (upper median for even counts); otherwise [Missing none]. *)
let median ~none f runs =
  let converged = List.filter_map f runs in
  if 2 * List.length converged < List.length runs + 1 then Missing none
  else
    let sorted = List.sort Float.compare converged in
    Float (List.nth sorted (List.length sorted / 2))

let ratio num den runs =
  Float (float_of_int (sum num runs) /. float_of_int (max 1 (sum den runs)))

(* The mean over runs of [x] per correct node and round (τ), as the
   §4.3 budget counts. *)
let rate x runs =
  Float
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
   (8-byte identifiers and header).  Matrix.run_tasks keeps the registry
   of a [Counters] metric's runs. *)
let counter suffix r =
  let name = Scenario.protocol_name r.result.Runner.scenario ^ "." ^ suffix in
  Option.fold ~none:Float.nan
    ~some:(fun o -> float_of_int (Obs.Counter.value (Obs.counter o name)))
    r.result.Runner.obs

let transport r = r.result.Runner.transport
let bandwidth r = r.result.Runner.bandwidth

let max_datagram runs =
  List.fold_left (fun m r -> max m (bandwidth r).Runner.max_datagram) 0 runs

let gossip ~none f r = Option.fold ~none ~some:f r.gossip
let runs f = Scope (fun s -> f s.group.g_runs)
let make ?(level = Run) ?(needs = []) keyword source =
  { keyword; level; needs; source }

let all =
  [
    make "time"
      (Scope
         (fun s ->
           let optimal = s.group.g_scenario.Scenario.f in
           median ~none:"no-convergence"
             (fun r ->
               Measurements.convergence_time ~optimal ~within:s.within
                 r.result.Runner.series)
             s.group.g_runs));
    make "samples_byz" (Point (fun p -> Some p.Measurements.sample_byz));
    make "delivered/sent"
      (runs
         (ratio
            (fun r -> (transport r).Engine.delivered)
            (fun r -> (transport r).Engine.sent)));
    make "delivered" ~needs:[ Gossip ]
      (runs (fun rs ->
           let delivered s = s.Gossip_app.delivered in
           Float (mean (gossip ~none:Float.nan delivered) rs)));
    make "t99" ~needs:[ Gossip ]
      (runs
         (median ~none:"never"
            (gossip ~none:None (fun s -> s.Gossip_app.t99))));
    make "redundancy" ~needs:[ Gossip ]
      (runs
         (ratio
            (gossip ~none:0 (fun s -> s.Gossip_app.duplicates))
            (gossip ~none:0 (fun s -> s.Gossip_app.deliveries))));
    make "isolated" (Point (fun p -> Some p.Measurements.isolated));
    make "isolated_frac" (Point (fun p -> Some p.Measurements.isolated));
    make "view_byz" (Point (fun p -> Some p.Measurements.view_byz));
    make "ever_isolated"
      (runs (fun rs ->
           let isolated r = r.result.Runner.ever_isolated_after_half in
           Bool (List.exists isolated rs)));
    make "msgs/node/round" ~needs:[ Counters ]
      (runs (rate (counter "msgs_sent")));
    make "bytes/node/round"
      (runs (rate (fun r -> float_of_int (bandwidth r).Runner.correct_bytes)));
    make "wire_bytes/node/round" ~needs:[ Counters ]
      (runs (rate (counter "bytes_sent")));
    make "max_datagram" (runs (fun rs -> Int (max_datagram rs)));
    make "fits_MTU" (runs (fun rs -> Bool (max_datagram rs <= 1500)));
    make "adv/correct bytes"
      (runs (fun rs ->
           let bytes field = sum (fun r -> field (bandwidth r)) rs in
           let correct = bytes (fun b -> b.Runner.correct_bytes) in
           let adversary = bytes (fun b -> b.Runner.adversary_bytes) in
           Float
             (if correct = 0 then Float.nan
              else float_of_int adversary /. float_of_int correct)));
    make "optimal" ~level:Cell
      (Scope (fun s -> Float s.group.g_scenario.Scenario.f));
    (* Eq. 16's stable root B1 at the cell's n, f, view size, τ and ρ
       (§3); "none" when the attack has no steady state. *)
    make "model_B1" ~level:Cell
      (Scope
         (fun s ->
           let sc = s.group.g_scenario in
           let env =
             Model.env ~n:sc.Scenario.n ~f:sc.Scenario.f
               ~v:(Scenario.view_size sc) ~tau:(Scenario.tau sc)
               ~rho:(Scenario.rho sc) ()
           in
           Option.fold ~none:(Missing "none")
             ~some:(fun b -> Float b)
             (Model.steady_state env)));
    (* The first seed's count: a group holds one run per seed. *)
    make "replacements" ~level:Cell
      (runs (fun rs -> Int (List.hd rs).result.Runner.nodes_churned));
    make "samples" (Histogram (fun h -> Int h.samples));
    make "tv_distance" (Histogram (fun h -> Float h.tv_distance));
    make "coeff_var" (Histogram (fun h -> Float h.coeff_var));
    make "max/mean" (Histogram (fun h -> Float h.max_over_mean));
    (* A/(H+A) of the row's (rank (prefix-diverse H A)) group. *)
    make "prefix_share" ~level:Row
      (Scope
         (fun s ->
           let share g =
             Option.map
               (fun (h, a) -> float_of_int a /. float_of_int (h + a))
               g.g_prefixes
           in
           Float
             (Option.value (List.find_map share s.row) ~default:Float.nan)));
    make "clustering" ~needs:[ Graph ]
      (Point (fun p -> p.Measurements.clustering));
    make "mean_path" ~needs:[ Graph ]
      (Point (fun p -> p.Measurements.mean_path));
    make "indeg_spread" ~needs:[ Graph ]
      (Point (fun p -> p.Measurements.indegree_spread));
  ]

let find keyword = List.find_opt (fun m -> m.keyword = keyword) all

let eval ?point m scope =
  match m.source with
  | Point f ->
      let at r =
        match point with
        | None -> r.result.Runner.final
        | Some i -> List.nth (Measurements.points r.result.Runner.series) i
      in
      let values = List.map (fun r -> f (at r)) scope.group.g_runs in
      if List.exists Option.is_none values then Missing "-"
      else Float (mean Option.get values)
  | Histogram f -> f (group_histogram scope.group)
  | Scope f -> f scope

let of_histogram m h =
  match m.source with Histogram f -> f h | Point _ | Scope _ -> Missing "-"
