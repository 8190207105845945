module Scenario = Basalt_sim.Scenario
module Runner = Basalt_sim.Runner
module Report = Basalt_sim.Report

type row = {
  v : int;
  basalt_max_rho : float option;
  brahms_max_rho : float option;
}

(* Try candidates in increasing order and stop at the first failure:
   isolation risk grows with rho (Fig. 2c), so once a rate fails, all
   larger ones would too.  No seeds is no evidence of survival, so it
   fails too. *)
let max_rho ~make ~seeds rhos =
  let isolates rho seed =
    (Runner.run (Scenario.with_seed (make ~rho) seed))
      .Runner.ever_isolated_after_half
  in
  let survives rho = seeds <> [] && not (List.exists (isolates rho) seeds) in
  let rec scan best = function
    | rho :: rest when survives rho -> scan (Some rho) rest
    | _ -> best
  in
  scan None (List.sort_uniq Float.compare rhos)

(* The v × protocol grid fans out over the pool; each ρ-scan stays
   sequential, since it stops at the first failing rate. *)
let run ?(scale = Scale.Standard) ?pool () =
  let n = Scale.n scale in
  let steps = Scale.steps scale in
  let seeds = Scale.seeds scale in
  let rhos = Scale.sampling_rates scale in
  let make_basalt v ~rho =
    Scenario.make ~name:"fig5-basalt" ~n ~f:0.1 ~force:10.0
      ~protocol:(Scenario.Basalt (Basalt_core.Config.make ~v ~rho ()))
      ~steps ()
  in
  let make_brahms v ~rho =
    Scenario.make ~name:"fig5-brahms" ~n ~f:0.1 ~force:10.0
      ~protocol:(Scenario.Brahms (Basalt_brahms.Brahms_config.make ~l:v ~rho ()))
      ~steps ()
  in
  (* Each max_rho scan is inherently sequential (it stops at the first
     failing rate), so parallelism comes from the v × protocol grid. *)
  let tasks =
    List.concat_map (fun v -> [ (v, `Basalt); (v, `Brahms) ]) (Scale.view_sizes scale)
  in
  let results =
    Basalt_parallel.Pool.map ?pool
      (fun (v, which) ->
        let make =
          match which with `Basalt -> make_basalt v | `Brahms -> make_brahms v
        in
        max_rho ~make ~seeds rhos)
      tasks
  in
  let rec rows = function
    | [] -> []
    | ((v, _), basalt_max_rho) :: (_, brahms_max_rho) :: rest ->
        { v; basalt_max_rho; brahms_max_rho } :: rows rest
    | _ -> assert false
  in
  rows (List.combine tasks results)

let rho_cell = function Some r -> Report.float_cell r | None -> "none"

let columns rows =
  let arr = Array.of_list rows in
  ( Array.length arr,
    [
      { Report.header = "v"; cell = (fun i -> string_of_int arr.(i).v) };
      {
        Report.header = "basalt_max_rho";
        cell = (fun i -> rho_cell arr.(i).basalt_max_rho);
      };
      {
        Report.header = "brahms_max_rho";
        cell = (fun i -> rho_cell arr.(i).brahms_max_rho);
      };
    ] )

let print ?(scale = Scale.Standard) ?csv ?pool () =
  Printf.printf
    "== fig5 (max sampling rate without isolation)  [n=%d f=0.1 F=10]\n"
    (Scale.n scale);
  let rows, cols = columns (run ~scale ?pool ()) in
  Output.emit ?csv ~rows cols
