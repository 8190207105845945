(* Tests for basalt.experiments: scales, experiment wiring, and the
   paper's qualitative claims at quick scale (shape-level regression
   tests for the reproduction). *)

open Basalt_experiments

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Scale --- *)

let scale_parsing () =
  check_bool "quick" true (Scale.of_string "quick" = Ok Scale.Quick);
  check_bool "standard" true (Scale.of_string "standard" = Ok Scale.Standard);
  check_bool "full" true (Scale.of_string "full" = Ok Scale.Full);
  check_bool "unknown" true (Result.is_error (Scale.of_string "huge"));
  Alcotest.(check string) "round trip" "quick" (Scale.to_string Scale.Quick)

let scale_monotone () =
  check_bool "n grows" true (Scale.n Scale.Quick < Scale.n Scale.Standard);
  check_bool "n grows 2" true (Scale.n Scale.Standard < Scale.n Scale.Full);
  check_bool "v grows" true (Scale.v Scale.Quick < Scale.v Scale.Full);
  List.iter
    (fun s ->
      check_bool "axes non-empty" true
        (Scale.view_sizes s <> [] && Scale.byzantine_fractions s <> []
        && Scale.forces s <> [] && Scale.sampling_rates s <> []);
      check_bool "seeds non-empty" true (Scale.seeds s <> []))
    [ Scale.Quick; Scale.Standard; Scale.Full ]

(* --- Theory (fast, closed-form) --- *)

let theory_worked_examples () =
  let w = Theory.worked_examples () in
  check_bool "joining bound < 1e-10" true (w.Theory.joining_bound < 1e-10);
  check_bool "delta_c >= 467" true (w.Theory.delta_c >= 467.0);
  check_bool "c_next >= 592" true (w.Theory.c_next >= 592.0);
  check_bool "safe_c ~ 585" true (w.Theory.safe_c > 580.0 && w.Theory.safe_c < 590.0)

let theory_equilibria_rows () =
  let rows = Theory.equilibria ~scale:Scale.Quick () in
  check_int "one row per view size" (List.length (Scale.view_sizes Scale.Quick))
    (List.length rows);
  List.iter
    (fun r ->
      match (r.Theory.b1, r.Theory.b2) with
      | Some b1, Some b2 ->
          check_bool "b1 < b2" true (b1 < b2);
          check_bool "b1 above f" true (b1 > 0.1)
      | _ -> ())
    rows

(* --- Fig. 5 --- *)

let fig5_max_rho () =
  (* With a protocol that never isolates at these scales, the largest
     tested rho wins. *)
  let make ~rho =
    Basalt_sim.Scenario.make ~name:"tiny" ~n:60 ~f:0.1 ~force:2.0
      ~protocol:
        (Basalt_sim.Scenario.Basalt
           (Basalt_core.Config.make ~v:10 ~k:2 ~rho ()))
      ~steps:30.0 ~seed:3 ()
  in
  (match Fig5.max_rho ~make ~seeds:[ 1 ] [ 0.5; 1.0 ] with
  | Some rho -> check_bool "a tested value" true (rho = 0.5 || rho = 1.0)
  | None -> Alcotest.fail "basalt should survive some rho here");
  (* No seeds => no evidence of survival: typed failure, not an
     exception. *)
  check_bool "no seeds means None" true
    (Fig5.max_rho ~make ~seeds:[] [ 0.5; 1.0 ] = None)

(* --- Fig. 2 (committed scenario files) --- *)

module Spec = Basalt_scenario.Spec
module Matrix = Basalt_scenario.Matrix
module Metric = Basalt_scenario.Metric
module Runner = Basalt_sim.Runner

(* Under `dune runtest` the suite runs from the build sandbox, where
   the (source_tree ../scenarios) dep lands one level up. *)
let committed_spec name =
  let dir =
    if Sys.file_exists "../scenarios" then "../scenarios/" else "scenarios/"
  in
  match Spec.load (dir ^ name ^ ".scn") with
  | Ok spec -> spec
  | Error (`Unreadable msg | `Invalid msg) -> Alcotest.fail msg

let fig2_panel_names () =
  let panels = [ "fig2a"; "fig2b"; "fig2c"; "fig2d" ] in
  check_int "four panels" 4 (List.length panels);
  List.iter
    (fun name ->
      match (committed_spec name).Spec.title with
      | Some title -> check_bool "named" true (String.length title > 0)
      | None -> Alcotest.failf "%s has no title" name)
    panels

(* The paper's core claims, regression-tested at quick scale.  One shared
   run of fig2a keeps the suite fast. *)
let fig2a =
  lazy
    (let spec = committed_spec "fig2a" in
     (spec, Matrix.run ~scale:Scale.Quick spec))

(* The mean of one final measurement over a protocol's runs in a row:
   the unrounded value behind the table cell. *)
let mean_final field row protocol =
  let runs = (List.assoc protocol row.Matrix.groups).Metric.g_runs in
  List.fold_left
    (fun acc r -> acc +. field r.Metric.result.Runner.final)
    0.0 runs
  /. float_of_int (List.length runs)

let sample_byz = mean_final (fun p -> p.Basalt_sim.Measurements.sample_byz)
let x_of row = List.assoc "x" row.Matrix.row_labels

let fig2a_shape () =
  let _, rows = Lazy.force fig2a in
  check_int "row per fraction"
    (List.length (Scale.byzantine_fractions Scale.Quick))
    (List.length rows);
  List.iter
    (fun row ->
      let basalt = sample_byz row "basalt" in
      let brahms = sample_byz row "brahms" in
      let optimal =
        (List.assoc "basalt" row.Matrix.groups).Metric.g_scenario
          .Basalt_sim.Scenario.f
      in
      (* Basalt must stay close to optimal and beat Brahms (§4.4). *)
      check_bool
        (Printf.sprintf "basalt near optimal at f=%s" (x_of row))
        true
        (basalt < optimal +. 0.1);
      check_bool
        (Printf.sprintf "basalt beats brahms at f=%s" (x_of row))
        true (basalt < brahms))
    rows

let fig2a_basalt_never_isolates () =
  List.iter
    (fun row ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "no isolation at f=%s" (x_of row))
        0.0
        (mean_final (fun p -> p.Basalt_sim.Measurements.isolated) row "basalt"))
    (snd (Lazy.force fig2a))

let fig2_columns_shape () =
  let spec, rows = Lazy.force fig2a in
  let rows, cols = Matrix.columns spec rows in
  check_int "column count" 6 (List.length cols);
  check_bool "row count" true (rows > 0)

(* --- SPS failure (the §4.3 claim, committed scenario file) --- *)

(* A pivot-less spec renders one row per cell, its one group keyed by
   "". *)
let row_of rows protocol =
  List.find (fun r -> List.assoc "protocol" r.Matrix.row_labels = protocol) rows

let sps_failure_claim () =
  let rows = Matrix.run ~scale:Scale.Quick (committed_spec "sps_failure") in
  let isolated name =
    mean_final
      (fun p -> p.Basalt_sim.Measurements.isolated)
      (row_of rows name) ""
  in
  (* SPS collapses; Basalt and Brahms keep everyone connected. *)
  check_bool "sps mostly isolated" true (isolated "sps" > 0.5);
  check_bool "basalt no isolation" true (isolated "basalt" = 0.0);
  check_bool "brahms no isolation" true (isolated "brahms" = 0.0)

(* --- Cost accounting (committed scenario file) --- *)

(* A rendered label column's cell. *)
let label cols header i =
  (List.find (fun c -> c.Basalt_sim.Report.header = header) cols)
    .Basalt_sim.Report.cell i

(* A float metric's value; any other value fails the test. *)
let float_value = function
  | Metric.Float x -> x
  | v -> Alcotest.failf "expected a float, got %s" (Metric.render v)

let cost_budget () =
  let spec = committed_spec "cost" in
  let matrix_rows = Matrix.run ~scale:Scale.Quick spec in
  let rows, cols = Matrix.columns spec matrix_rows in
  let value = Matrix.lookup spec matrix_rows in
  check_int "four protocols" 4 rows;
  for i = 0 to rows - 1 do
    let protocol = label cols "protocol" i in
    check_bool (protocol ^ " fits MTU") true
      (value "fits_MTU" i = Metric.Bool true);
    let msgs = float_value (value "msgs/node/round" i) in
    check_bool
      (protocol ^ " ~2 msgs/round (plus replies)")
      true
      (msgs >= 1.0 && msgs <= 4.0)
  done

(* --- Sybil extension: the (rank (prefix-diverse H A)) address map --- *)

let sybil_prefix_layout () =
  let layout = Matrix.prefix_layout ~honest:100 ~honest_prefixes:10 ~attacker_prefixes:2 in
  check_int "honest spread" 3 (layout 3);
  check_int "honest wraps" 3 (layout 13);
  check_int "attacker prefix base" 10 (layout 100);
  check_int "attacker cycles" 11 (layout 101);
  check_int "attacker wraps" 10 (layout 102)

(* --- Uniformity statistics: the matrix's histogram metrics --- *)

let uniformity_of_histogram () =
  (* Perfectly uniform histogram: zero TV distance and CV. *)
  let r = Metric.histogram_stats ~correct:4 [| 5; 5; 5; 5; 99 |] in
  check_int "samples counted over correct only" 20 r.Metric.samples;
  check_bool "tv zero" true (Float.abs r.Metric.tv_distance < 1e-9);
  check_bool "cv zero" true (Float.abs r.Metric.coeff_var < 1e-9);
  check_bool "max/mean one" true (Float.abs (r.Metric.max_over_mean -. 1.0) < 1e-9);
  (* Fully concentrated: TV = 1 - 1/n. *)
  let c = Metric.histogram_stats ~correct:4 [| 20; 0; 0; 0 |] in
  check_bool "tv of point mass" true
    (Float.abs (c.Metric.tv_distance -. 0.75) < 1e-9);
  (* Empty histogram: nan statistics, zero samples. *)
  let e = Metric.histogram_stats ~correct:3 [| 0; 0; 0 |] in
  check_int "no samples" 0 e.Metric.samples;
  check_bool "nan tv" true (Float.is_nan e.Metric.tv_distance)

(* --- Robustness under fault plans (DESIGN.md §10) --- *)

(* robustness-net is the committed scenario file run by the matrix
   driver; the assertions read its typed metric values. *)
let robustness_net_rows () =
  let spec = committed_spec "robustness_net" in
  let matrix_rows = Matrix.run ~scale:Scale.Quick spec in
  let rows, cols = Matrix.columns spec matrix_rows in
  let value = Matrix.lookup spec matrix_rows in
  check_int "four conditions" 4 rows;
  for i = 0 to rows - 1 do
    let condition = label cols "condition" i in
    (* Basalt must ride out every fault plan at quick scale. *)
    check_bool (condition ^ ": basalt converges") true
      (match value "basalt_time" i with Metric.Float _ -> true | _ -> false);
    check_bool (condition ^ ": basalt near optimal") true
      (float_value (value "basalt_samples_byz" i) < 0.2)
  done;
  (* The delivery column reflects the injected transport faults. *)
  let delivered =
    List.init rows (fun i ->
        ( label cols "condition" i,
          float_value (value "basalt_delivered/sent" i) ))
  in
  let delivered c = List.assoc c delivered in
  check_bool "burst loss drops messages" true (delivered "burst-loss" < 1.0);
  check_bool "duplication delivers extras" true (delivered "dup-reorder" > 1.0);
  check_bool "partition drops below clean" true
    (delivered "partition" < delivered "clean")

(* --- Timeline --- *)

let timeline_spec () =
  check_bool "default ok" true (Result.is_ok (Timeline.spec ()));
  check_bool "unknown protocol" true
    (Result.is_error (Timeline.spec ~protocol:"raft" ()));
  match Timeline.spec ~protocol:"classic" ~n:80 ~v:8 ~steps:10.0 () with
  | Error e -> Alcotest.fail e
  | Ok s ->
      let r = Timeline.run s in
      check_bool "series recorded" true
        (Basalt_sim.Measurements.length r.Basalt_sim.Runner.series >= 10)

(* --- Live deployment --- *)

let live_rows () =
  let rows, result = Live.run ~scale:Scale.Quick () in
  check_int "three samplers" 3 (List.length rows);
  check_bool "witness not eclipsed" false
    result.Basalt_avalanche.Deployment.witness_isolated;
  List.iter
    (fun r ->
      check_bool
        (r.Live.sampler ^ " proportion sane")
        true
        (r.Live.malicious_proportion >= 0.0 && r.Live.malicious_proportion <= 0.5))
    rows

let () =
  Alcotest.run "experiments"
    [
      ( "scale",
        [
          Alcotest.test_case "parsing" `Quick scale_parsing;
          Alcotest.test_case "monotone" `Quick scale_monotone;
        ] );
      ( "theory",
        [
          Alcotest.test_case "worked examples" `Quick theory_worked_examples;
          Alcotest.test_case "equilibria rows" `Quick theory_equilibria_rows;
        ] );
      ( "fig2",
        [
          Alcotest.test_case "panel names" `Quick fig2_panel_names;
          Alcotest.test_case "fig2a shape (paper claim)" `Slow fig2a_shape;
          Alcotest.test_case "basalt never isolates" `Slow
            fig2a_basalt_never_isolates;
          Alcotest.test_case "columns shape" `Slow fig2_columns_shape;
        ] );
      ( "fig5", [ Alcotest.test_case "max_rho" `Quick fig5_max_rho ] );
      ( "sps_failure",
        [ Alcotest.test_case "section 4.3 claim" `Slow sps_failure_claim ] );
      ( "cost",
        [ Alcotest.test_case "budget check" `Slow cost_budget ] );
      ( "sybil",
        [ Alcotest.test_case "prefix layout" `Quick sybil_prefix_layout ] );
      ( "uniformity",
        [ Alcotest.test_case "of_histogram" `Quick uniformity_of_histogram ] );
      ( "robustness_net",
        [ Alcotest.test_case "fault-plan sweep" `Slow robustness_net_rows ] );
      ( "timeline",
        [ Alcotest.test_case "spec and run" `Quick timeline_spec ] );
      ( "live",
        [ Alcotest.test_case "section 5 rows" `Slow live_rows ] );
    ]
