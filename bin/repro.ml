(* Reproduction driver: one subcommand per paper figure/table.
   See DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
   paper-vs-measured outcomes. *)

open Cmdliner
open Basalt_experiments
module Pool = Basalt_parallel.Pool

let scale_arg =
  let parse s = Result.map_error (fun e -> `Msg e) (Scale.of_string s) in
  let print ppf s = Format.fprintf ppf "%s" (Scale.to_string s) in
  let scale_conv = Arg.conv ~docv:"SCALE" (parse, print) in
  let doc =
    "Experiment scale: $(b,quick) (seconds), $(b,standard) (minutes, n=1000) \
     or $(b,full) (paper scale, n=10000; hours for the complete suite)."
  in
  Arg.(value & opt scale_conv Scale.Standard & info [ "s"; "scale" ] ~doc)

let csv_arg =
  let doc =
    "Also write each experiment's rows as CSV files under $(docv) (created \
     if missing)."
  in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let trace_arg =
  let doc =
    "Write a deterministic JSONL event trace (lib/obs, DESIGN.md \xc2\xa78) to \
     $(docv).  Supported by $(b,timeline) and every target that runs a \
     scenario file; a target running several files, $(b,all) and \
     $(b,extensions) included, traces the first to $(docv) and each later \
     one next to it, named after the file (t.jsonl, then \
     t.robustness_latency.jsonl).  Other targets warn and ignore the flag."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Fan Monte-Carlo runs out over $(docv) domains (1 = sequential, today's \
     default; 0 = one domain per core).  Results are bit-identical at any \
     setting (DESIGN.md \xc2\xa77)."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let csv_path csv_dir name =
  Option.map
    (fun dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Filename.concat dir (name ^ ".csv"))
    csv_dir

(* Fail fast, with the failing path and a distinct exit code, before
   spending minutes on an experiment whose output cannot be written
   (exit 5; test_cli.ml pins it). *)
let exit_unwritable = 5

let fail_unwritable kind path msg =
  Printf.eprintf "repro: cannot write %s %s: %s\n%!" kind path msg;
  exit exit_unwritable

(* The append-without-truncate probe leaves pre-existing contents
   intact; a file it creates is immediately rewritten by the run. *)
let validate_trace = function
  | None -> ()
  | Some path -> (
      try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 path)
      with Sys_error msg -> fail_unwritable "trace file" path msg)

let validate_csv_dir = function
  | None -> ()
  | Some dir -> (
      try
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let probe = Filename.concat dir ".repro_probe" in
        close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 probe);
        Sys.remove probe
      with Sys_error msg -> fail_unwritable "csv directory" dir msg)

(* jobs = 1 avoids the pool entirely (no domains are ever spawned), so
   the default matches the pre-parallelism driver exactly. *)
let with_jobs jobs f =
  match jobs with
  | 1 -> f None
  | 0 -> Pool.with_pool (fun pool -> f (Some pool))
  | j when j > 1 -> Pool.with_pool ~domains:j (fun pool -> f (Some pool))
  | _ ->
      prerr_endline "repro: -j must be >= 0";
      exit 1

let timed cmd_name f ~scale ~csv_dir ~trace ~jobs =
  let t0 = Unix.gettimeofday () in
  with_jobs jobs (fun pool -> f ~scale ~csv_dir ~trace ~pool ());
  Printf.printf "[%s done in %.1fs]\n\n%!" cmd_name (Unix.gettimeofday () -. t0)

(* Every scenario-matrix target (DESIGN.md §12) runs through here; the
   CSV is named after the spec (robustness-net -> robustness_net.csv). *)
let run_spec spec ~scale ~csv_dir ~trace ~pool () =
  Basalt_scenario.Matrix.print ~scale
    ?csv:(csv_path csv_dir (Basalt_scenario.Spec.slug spec))
    ?trace ?pool spec

(* The committed scenario files (bin/dune), parsed at start-up.
   test_scenario validates the same files, so the error branch only
   fires on a broken build; it exits like `repro matrix` on an invalid
   file. *)
let committed =
  List.map
    (fun (file, contents) ->
      match
        Basalt_scenario.Spec.of_string ~file:("scenarios/" ^ file ^ ".scn")
          contents
      with
      | Ok spec -> spec
      | Error msg ->
          Printf.eprintf "%s\n%!" msg;
          exit 4)
    Scenario_files.all

(* The targets that are OCaml modules rather than scenario files. *)
let modules =
  [
    ( "fig5",
      "Max sampling rate without isolation vs v (Fig. 5)",
      fun ~scale ~csv_dir ~pool ->
        Fig5.print ~scale ?csv:(csv_path csv_dir "fig5") ?pool () );
    ( "live",
      "Simulated live-deployment measurement (Section 5)",
      fun ~scale ~csv_dir ~pool:_ ->
        Live.print ~scale ?csv:(csv_path csv_dir "live") () );
    ( "theory",
      "Section 3 worked bounds and Eq. 16 equilibria",
      fun ~scale ~csv_dir:_ ~pool:_ -> Theory.print ~scale () );
    ( "params",
      "Table 1 parameter envelope and stability checks",
      fun ~scale ~csv_dir:_ ~pool:_ -> Params.print ~scale () );
    ( "dag",
      "Extension: Avalanche DAG consensus with a double-spend",
      fun ~scale ~csv_dir ~pool:_ ->
        Dag_exp.print ~scale ?csv:(csv_path csv_dir "dag") () );
  ]

(* The composite targets: each member is a module target or a
   committed spec's name (aliases do not nest). *)
let aliases =
  [
    ( "fig2",
      "All four panels of Fig. 2",
      [ "fig2a"; "fig2b"; "fig2c"; "fig2d" ] );
    ( "robustness",
      "Extension: resilience to message loss and latency jitter",
      [ "robustness"; "robustness-latency" ] );
    ( "all",
      "Run every paper experiment in sequence",
      [
        "params"; "theory"; "theory-model"; "fig2a"; "fig2b"; "fig2c"; "fig2d";
        "fig3"; "fig4"; "fig5"; "sps-failure"; "live"; "cost";
      ] );
    ( "extensions",
      "Run the extension experiments (churn, sybil, robustness, \
       robustness-net, uniformity, dag, broadcast)",
      [
        "churn"; "sybil"; "robustness"; "robustness-latency"; "robustness-net";
        "uniformity"; "dag"; "broadcast";
      ] );
  ]

type member =
  | Module of
      (scale:Scale.t -> csv_dir:string option -> pool:Pool.t option -> unit)
  | File of Basalt_scenario.Spec.t

let member name =
  match List.find_opt (fun (n, _, _) -> String.equal n name) modules with
  | Some (_, _, f) -> Module f
  | None ->
      File
        (List.find
           (fun (s : Basalt_scenario.Spec.t) -> String.equal s.name name)
           committed)

(* Runs [members] in order.  With --trace FILE, the first scenario file
   traces to FILE and each later one to FILE with its slug before the
   extension; a target that runs no file warns and ignores the flag. *)
let run_members cmd_name members ~scale ~csv_dir ~trace ~pool () =
  if
    Option.is_some trace
    && not (List.exists (function File _ -> true | Module _ -> false) members)
  then
    Printf.eprintf
      "repro %s: --trace is only supported by timeline and the targets that \
       run scenario files; ignoring\n\
       %!"
      cmd_name;
  ignore
    (List.fold_left
       (fun first -> function
         | Module f ->
             f ~scale ~csv_dir ~pool;
             first
         | File spec ->
             let next path =
               Printf.sprintf "%s.%s%s"
                 (Filename.remove_extension path)
                 (Basalt_scenario.Spec.slug spec)
                 (Filename.extension path)
             in
             let trace = if first then trace else Option.map next trace in
             run_spec spec ~scale ~csv_dir ~trace ~pool ();
             false)
       true members)

let cmd (cmd_name, doc, members) =
  let members = List.map member members in
  let run scale csv_dir trace jobs =
    validate_csv_dir csv_dir;
    validate_trace trace;
    timed cmd_name (run_members cmd_name members) ~scale ~csv_dir ~trace ~jobs
  in
  Cmd.v (Cmd.info cmd_name ~doc)
    Term.(const run $ scale_arg $ csv_arg $ trace_arg $ jobs_arg)

(* Every committed file with a (doc ...) line is a target, named after
   its (name ...). *)
let cmds =
  List.map cmd
    (List.map (fun (name, doc, _) -> (name, doc, [ name ])) modules
    @ List.filter_map
        (fun (s : Basalt_scenario.Spec.t) ->
          Option.map (fun doc -> (s.name, doc, [ s.name ])) s.doc)
        committed
    @ aliases)

(* timeline has its own flag set (free-form scenario parameters). *)
let timeline_cmd =
  let protocol =
    Arg.(
      value & opt string "basalt"
      & info [ "protocol" ] ~docv:"NAME" ~doc:"basalt|brahms|sps|classic")
  in
  let n = Arg.(value & opt int 1000 & info [ "n" ] ~doc:"Network size.") in
  let f =
    Arg.(value & opt float 0.1 & info [ "f" ] ~doc:"Byzantine fraction.")
  in
  let force = Arg.(value & opt float 10.0 & info [ "F" ] ~doc:"Attack force.") in
  let v = Arg.(value & opt int 100 & info [ "v" ] ~doc:"View size.") in
  let rho = Arg.(value & opt float 1.0 & info [ "rho" ] ~doc:"Sampling rate.") in
  let steps = Arg.(value & opt float 200.0 & info [ "steps" ] ~doc:"Duration.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let graph =
    Arg.(value & flag & info [ "graph-metrics" ] ~doc:"Record Fig. 4 metrics.")
  in
  let run protocol n f force v rho steps seed graph csv_dir trace =
    validate_csv_dir csv_dir;
    validate_trace trace;
    match
      Timeline.spec ~protocol ~n ~f ~force ~v ~rho ~steps ~seed
        ~graph_metrics:graph ()
    with
    | Ok s -> Timeline.print ?csv:(csv_path csv_dir "timeline") ?trace s
    | Error msg ->
        prerr_endline ("timeline: " ^ msg);
        exit 1
  in
  Cmd.v
    (Cmd.info "timeline" ~doc:"Time series for one free-form scenario")
    Term.(
      const run $ protocol $ n $ f $ force $ v $ rho $ steps $ seed $ graph
      $ csv_arg $ trace_arg)

(* matrix runs a declarative scenario file (DESIGN.md §12).  Distinct
   exit codes, pinned in test_cli.ml: 3 = unreadable scenario file,
   4 = parse/validation error (reported as file:line:col), 5 = shared
   unwritable-output failure. *)
let matrix_cmd =
  let file_arg =
    let doc = "Scenario matrix file (s-expression, DESIGN.md \xc2\xa712)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file scale csv_dir trace jobs =
    validate_csv_dir csv_dir;
    validate_trace trace;
    match Basalt_scenario.Spec.load file with
    | Error (`Unreadable msg) ->
        Printf.eprintf "repro matrix: cannot read %s: %s\n%!" file msg;
        exit 3
    | Error (`Invalid msg) ->
        Printf.eprintf "%s\n%!" msg;
        exit 4
    | Ok spec -> timed "matrix" (run_spec spec) ~scale ~csv_dir ~trace ~jobs
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:
         "Run a declarative scenario matrix from FILE (see scenarios/ for \
          committed examples)")
    Term.(const run $ file_arg $ scale_arg $ csv_arg $ trace_arg $ jobs_arg)

let () =
  let info =
    Cmd.info "basalt-repro" ~version:"1.0.0"
      ~doc:"Reproduce the evaluation of the Basalt paper (Middleware 2023)"
  in
  exit (Cmd.eval (Cmd.group info (timeline_cmd :: matrix_cmd :: cmds)))
