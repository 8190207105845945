module Pool = Basalt_parallel.Pool

type aggregate = {
  mean_view_byz : float;
  mean_sample_byz : float;
  mean_isolated : float;
  isolation_runs : int;
  runs : int;
}

let run_seeds ?pool ?obs ?trace s ~seeds =
  Pool.map ?pool
    (fun seed -> Runner.run ?obs ?trace (Scenario.with_seed s seed))
    seeds

let aggregate results =
  match results with
  | [] -> None
  | _ ->
      let n = List.length results in
      let total field =
        List.fold_left (fun acc r -> acc +. field r.Runner.final) 0.0 results
        /. float_of_int n
      in
      Some
        {
          mean_view_byz = total (fun p -> p.Measurements.view_byz);
          mean_sample_byz = total (fun p -> p.Measurements.sample_byz);
          mean_isolated = total (fun p -> p.Measurements.isolated);
          isolation_runs =
            List.length
              (List.filter (fun r -> r.Runner.ever_isolated_after_half) results);
          runs = n;
        }

let require_seeds fname seeds =
  if seeds = [] then invalid_arg (fname ^ ": no seeds")

let chunks k xs =
  let rec take k acc rest =
    if k = 0 then (List.rev acc, rest)
    else
      match rest with
      | x :: tl -> take (k - 1) (x :: acc) tl
      | [] -> invalid_arg "Sweep.chunks: list length not a multiple of k"
  in
  let rec go = function
    | [] -> []
    | xs ->
        let group, rest = take k [] xs in
        group :: go rest
  in
  if k <= 0 then invalid_arg "Sweep.chunks: k must be positive" else go xs

(* Fan out over the flat scenario × seed product, then regroup runs per
   scenario in order.  Flattening matters: the scale presets use a single
   seed, so parallelism has to come from the scenario axis as much as
   from the seed axis.  Every group carries one run per seed and the
   seed list was checked non-empty, so [aggregate] cannot fail. *)
let run_aggregates ?pool scenarios ~seeds =
  require_seeds "Sweep.run_aggregates" seeds;
  let tasks =
    List.concat_map
      (fun s -> List.map (fun seed -> Scenario.with_seed s seed) seeds)
      scenarios
  in
  Pool.map ?pool Runner.run tasks
  |> chunks (List.length seeds)
  |> List.map (fun group -> Option.get (aggregate group))

let max_rho ?pool ~make ~seeds rhos =
  let sorted = List.sort_uniq Float.compare rhos in
  (* Try candidates in increasing order and stop at the first failure:
     isolation risk grows with rho (Fig. 2c), so once a rate fails, all
     larger ones would too.  An empty result set (no seeds) counts as a
     failure — no evidence of survival — rather than an exception. *)
  let rec scan best = function
    | [] -> best
    | rho :: rest -> (
        match aggregate (run_seeds ?pool (make ~rho) ~seeds) with
        | Some agg when agg.isolation_runs = 0 -> scan (Some rho) rest
        | Some _ | None -> best)
  in
  scan None sorted
