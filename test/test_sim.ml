(* Tests for basalt.sim: scenarios, measurements, reports, the
   runner.  Runner tests use deliberately tiny networks so the whole
   suite stays fast. *)

open Basalt_sim
module Measurements = Basalt_sim.Measurements

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- Scenario --- *)

let scenario_defaults () =
  let s = Scenario.make () in
  check_int "n" 1000 s.Scenario.n;
  check_float "f" 0.1 s.Scenario.f;
  check_int "byzantine" 100 (Scenario.num_byzantine s);
  check_int "correct" 900 (Scenario.num_correct s);
  Alcotest.(check string) "protocol" "basalt" (Scenario.protocol_name s)

let scenario_validation () =
  let expect msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  expect "Scenario.make: n must be positive" (fun () ->
      ignore (Scenario.make ~n:0 ()));
  expect "Scenario.make: f out of [0,1)" (fun () ->
      ignore (Scenario.make ~f:1.0 ()));
  expect "Scenario.make: negative force" (fun () ->
      ignore (Scenario.make ~force:(-1.0) ()))

let scenario_accessors () =
  let s =
    Scenario.make
      ~protocol:(Scenario.Basalt (Basalt_core.Config.make ~v:50 ~k:10 ~rho:2.0 ()))
      ()
  in
  check_int "view size" 50 (Scenario.view_size s);
  check_float "tau" 1.0 (Scenario.tau s);
  check_float "refresh k/rho" 5.0 (Scenario.refresh_interval s);
  let brahms =
    Scenario.make ~protocol:(Scenario.Brahms (Basalt_brahms.Brahms_config.make ~l:30 ())) ()
  in
  check_int "brahms view size" 30 (Scenario.view_size brahms);
  let sps = Scenario.make ~protocol:(Scenario.Sps (Basalt_sps.Sps.config ~l:20 ())) () in
  check_int "sps view size" 20 (Scenario.view_size sps)

let scenario_with_seed () =
  let s = Scenario.make ~seed:1 () in
  let s2 = Scenario.with_seed s 99 in
  check_int "seed changed" 99 s2.Scenario.seed;
  check_int "rest unchanged" s.Scenario.n s2.Scenario.n

(* --- Measurements --- *)

let point ?(time = 0.0) ?(sample_byz = 0.0) ?(view_byz = 0.0) ?(isolated = 0.0) () =
  {
    Measurements.time;
    view_byz;
    sample_byz;
    isolated;
    clustering = None;
    mean_path = None;
    indegree_spread = None;
    metrics = None;
  }

let measurements_basics () =
  let m = Measurements.create () in
  check_int "empty" 0 (Measurements.length m);
  check_bool "no last" true (Measurements.last m = None);
  Measurements.add m (point ~time:1.0 ());
  Measurements.add m (point ~time:2.0 ());
  check_int "two" 2 (Measurements.length m);
  (match Measurements.last m with
  | Some p -> check_float "last time" 2.0 p.Measurements.time
  | None -> Alcotest.fail "expected last");
  match Measurements.points m with
  | [ p1; _ ] -> check_float "oldest first" 1.0 p1.Measurements.time
  | _ -> Alcotest.fail "expected two points"

let measurements_convergence () =
  let m = Measurements.create () in
  List.iter
    (fun (t, s) -> Measurements.add m (point ~time:t ~sample_byz:s ()))
    [ (1.0, 0.5); (2.0, 0.12); (3.0, 0.3); (4.0, 0.11); (5.0, 0.12) ];
  (* optimal 0.1, within 25% -> threshold 0.125; the suffix from t=4 on
     stays below, t=2 dips but t=3 breaks it. *)
  (match Measurements.convergence_time ~optimal:0.1 ~within:0.25 m with
  | Some t -> check_float "suffix start" 4.0 t
  | None -> Alcotest.fail "should converge");
  check_bool "never with tight bound" true
    (Measurements.convergence_time ~optimal:0.1 ~within:0.0 m = None)

let measurements_convergence_views () =
  let m = Measurements.create () in
  Measurements.add m (point ~time:1.0 ~view_byz:0.1 ~sample_byz:0.9 ());
  (match Measurements.convergence_time ~metric:`Views ~optimal:0.1 ~within:0.25 m with
  | Some t -> check_float "views metric" 1.0 t
  | None -> Alcotest.fail "views converge");
  check_bool "samples metric differs" true
    (Measurements.convergence_time ~metric:`Samples ~optimal:0.1 ~within:0.25 m = None)

(* --- Report --- *)

let report_table () =
  let cols =
    [
      { Report.header = "x"; cell = (fun i -> string_of_int i) };
      { Report.header = "name"; cell = (fun i -> [| "aa"; "b" |].(i)) };
    ]
  in
  let t = Report.table ~rows:2 cols in
  check_bool "has header" true (String.length t > 0);
  let lines = String.split_on_char '\n' t in
  check_int "header + separator + 2 rows + trailing" 5 (List.length lines);
  check_bool "header present" true
    (String.length (List.nth lines 0) > 0
    && String.sub (List.nth lines 0) 0 1 = "x")

let report_csv () =
  let cols =
    [
      { Report.header = "a"; cell = (fun i -> string_of_int i) };
      { Report.header = "b"; cell = (fun _ -> "z") };
    ]
  in
  Alcotest.(check string) "csv" "a,b\n0,z\n1,z\n" (Report.csv ~rows:2 cols)

(* A cell may be costly (a matrix metric re-sums a group's histograms),
   so a table calls each one once per row, and a frozen set of columns
   serves a table and a CSV without calling any again. *)
let report_cells_once () =
  let calls = ref 0 in
  let cols =
    [
      {
        Report.header = "n";
        cell =
          (fun i ->
            incr calls;
            string_of_int (i * 100));
      };
    ]
  in
  ignore (Report.table ~rows:3 cols);
  check_int "table: one call per cell" 3 !calls;
  calls := 0;
  let frozen = Report.freeze ~rows:3 cols in
  let t = Report.table ~rows:3 frozen and c = Report.csv ~rows:3 frozen in
  check_int "table and csv of frozen columns: one call per cell" 3 !calls;
  Alcotest.(check string) "frozen table" (Report.table ~rows:3 cols) t;
  Alcotest.(check string) "frozen csv" "n\n0\n100\n200\n" c

let report_write_csv () =
  let path = Filename.temp_file "basalt" ".csv" in
  Report.write_csv ~path ~rows:1
    [ { Report.header = "h"; cell = (fun _ -> "v") } ];
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header written" "h" line

let report_float_cell () =
  Alcotest.(check string) "formats" "0.1235" (Report.float_cell 0.12345);
  Alcotest.(check string) "nan" "-" (Report.float_cell Float.nan)

let report_sparkline () =
  Alcotest.(check string) "empty" "" (Report.sparkline [||]);
  Alcotest.(check string) "all nan" "" (Report.sparkline [| Float.nan |]);
  (* Constant series renders at the lowest filled level, full width. *)
  let flat = Report.sparkline ~width:4 (Array.make 4 1.0) in
  Alcotest.(check string) "flat" "▁▁▁▁" flat;
  (* Monotone series must be non-decreasing in block height. *)
  let ramp = Report.sparkline ~width:8 (Array.init 8 float_of_int) in
  Alcotest.(check string) "ramp" "▁▂▃▄▅▆▇█" ramp;
  (* Width larger than the series clamps. *)
  Alcotest.(check string) "clamped width" "▁█"
    (Report.sparkline ~width:10 [| 0.0; 1.0 |]);
  (* NaN holes render as spaces. *)
  Alcotest.(check string) "nan hole" "▁ █"
    (Report.sparkline ~width:3 [| 0.0; Float.nan; 1.0 |])

let report_series_columns () =
  let m = Measurements.create () in
  Measurements.add m (point ~time:1.0 ());
  let cols = Report.series_columns m in
  check_int "base columns" 4 (List.length cols);
  let m2 = Measurements.create () in
  Measurements.add m2
    {
      (point ~time:1.0 ()) with
      Measurements.clustering = Some 0.5;
      mean_path = Some 2.0;
      indegree_spread = Some 1.0;
    };
  check_int "with graph metrics" 7 (List.length (Report.series_columns m2));
  let m3 = Measurements.create () in
  Measurements.add m3
    {
      (point ~time:1.0 ()) with
      Measurements.metrics = Some [ ("basalt.rounds", 30.0); ("basalt.rank_evals", 1.5) ];
    };
  let cols3 = Report.series_columns m3 in
  check_int "with instrument metrics" 6 (List.length cols3);
  let headers = List.map (fun c -> c.Report.header) cols3 in
  check_bool "metric headers appended" true
    (List.mem "basalt.rounds" headers && List.mem "basalt.rank_evals" headers);
  let rounds_col =
    List.find (fun c -> c.Report.header = "basalt.rounds") cols3
  in
  Alcotest.(check string) "integral metric renders as integer" "30"
    (rounds_col.Report.cell 0)

(* --- Runner --- *)

let tiny_scenario ?(seed = 3) ?(f = 0.1) ?(protocol = Scenario.Basalt (Basalt_core.Config.make ~v:10 ~k:2 ())) () =
  Scenario.make ~name:"tiny" ~n:60 ~f ~force:2.0 ~protocol ~steps:30.0 ~seed ()

let runner_is_malicious_layout () =
  let s = tiny_scenario () in
  check_bool "last ids malicious" true
    (Runner.is_malicious s (Basalt_proto.Node_id.of_int 59));
  check_bool "first ids correct" false
    (Runner.is_malicious s (Basalt_proto.Node_id.of_int 0))

let runner_deterministic () =
  let s = tiny_scenario () in
  let r1 = Runner.run s and r2 = Runner.run s in
  check_float "same final view_byz" r1.Runner.final.Measurements.view_byz
    r2.Runner.final.Measurements.view_byz;
  check_float "same final sample_byz" r1.Runner.final.Measurements.sample_byz
    r2.Runner.final.Measurements.sample_byz;
  check_int "same transport"
    r1.Runner.transport.Basalt_engine.Engine.sent
    r2.Runner.transport.Basalt_engine.Engine.sent

let runner_seed_sensitivity () =
  let r1 = Runner.run (tiny_scenario ~seed:3 ()) in
  let r2 = Runner.run (tiny_scenario ~seed:4 ()) in
  check_bool "different seeds differ" true
    (r1.Runner.final.Measurements.view_byz
     <> r2.Runner.final.Measurements.view_byz
    || r1.Runner.adversary_pushes <> r2.Runner.adversary_pushes)

let runner_no_adversary_when_f0 () =
  let r = Runner.run (tiny_scenario ~f:0.0 ()) in
  check_int "no pushes" 0 r.Runner.adversary_pushes;
  check_float "clean views" 0.0 r.Runner.final.Measurements.view_byz;
  check_float "no isolation" 0.0 r.Runner.final.Measurements.isolated

let runner_series_recorded () =
  let r = Runner.run (tiny_scenario ()) in
  check_bool "measurements accumulated" true
    (Measurements.length r.Runner.series >= 30);
  check_int "per-node outcomes" 54 (Array.length r.Runner.per_node)

let runner_per_node_consistent () =
  let r = Runner.run (tiny_scenario ()) in
  Array.iter
    (fun o ->
      check_bool "view proportion in [0,1]" true
        (o.Runner.node_view_byz >= 0.0 && o.Runner.node_view_byz <= 1.0);
      check_bool "samples counted" true (o.Runner.node_samples_total >= 0))
    r.Runner.per_node

let runner_observer_called () =
  let called = ref 0 in
  let observer ~time:_ ~views:_ = incr called in
  ignore (Runner.run ~observer (tiny_scenario ()));
  check_bool "observer invoked per measurement" true (!called >= 30)

let runner_graph_metrics_present () =
  let s =
    Scenario.make ~name:"metrics" ~n:60 ~f:0.1 ~force:1.0
      ~protocol:(Scenario.Basalt (Basalt_core.Config.make ~v:10 ~k:2 ()))
      ~steps:10.0 ~graph_metrics:true ()
  in
  let r = Runner.run s in
  check_bool "clustering recorded" true
    (Option.is_some r.Runner.final.Measurements.clustering);
  check_bool "mean path recorded" true
    (Option.is_some r.Runner.final.Measurements.mean_path)

let runner_basalt_beats_classic () =
  (* The repository's headline behavior, in miniature. *)
  let basalt = Runner.run (tiny_scenario ()) in
  let classic =
    Runner.run
      (tiny_scenario ~protocol:(Scenario.Classic (Basalt_sps.Classic.config ~l:10 ())) ())
  in
  check_bool "basalt cleaner views" true
    (basalt.Runner.final.Measurements.view_byz
    < classic.Runner.final.Measurements.view_byz)

(* --- Churn --- *)

let churn_validation () =
  Alcotest.check_raises "rate" (Invalid_argument "Churn.make: rate out of [0,1]")
    (fun () -> ignore (Churn.make ~rate:1.5 ()));
  Alcotest.check_raises "start" (Invalid_argument "Churn.make: negative start")
    (fun () -> ignore (Churn.make ~start:(-1.0) ~rate:0.1 ()))

let churn_replacements_expectation () =
  let c = Churn.make ~rate:0.013 () in
  let rng = Basalt_prng.Rng.create ~seed:5 in
  let total = ref 0 in
  let rounds = 5000 in
  for _ = 1 to rounds do
    total := !total + Churn.replacements c rng ~correct:100
  done;
  let per_round = float_of_int !total /. float_of_int rounds in
  check_bool "expectation ~ rate * correct" true
    (Float.abs (per_round -. 1.3) < 0.1)

let churn_runner_replaces_nodes () =
  let s =
    Scenario.make ~name:"churny" ~n:60 ~f:0.1 ~force:2.0
      ~protocol:(Scenario.Basalt (Basalt_core.Config.make ~v:10 ~k:2 ()))
      ~steps:30.0
      ~churn:(Churn.make ~start:5.0 ~rate:0.05 ())
      ()
  in
  let r = Runner.run s in
  check_bool "nodes were replaced" true (r.Runner.nodes_churned > 0);
  (* determinism holds with churn too *)
  let r2 = Runner.run s in
  check_int "deterministic churn" r.Runner.nodes_churned r2.Runner.nodes_churned

let churn_zero_without_model () =
  let r = Runner.run (tiny_scenario ()) in
  check_int "no churn by default" 0 r.Runner.nodes_churned

(* Crash-style churn plus dead-peer eviction: live nodes' views should
   carry far fewer references to crashed nodes than without eviction. *)
let churn_crash_and_eviction () =
  let n = 80 in
  let crash = Churn.make ~start:10.0 ~style:Churn.Crash ~rate:0.008 () in
  let scenario evict =
    Scenario.make ~name:"crashy" ~n ~f:0.0
      ~protocol:
        (Scenario.Basalt
           (Basalt_core.Config.make ~v:10 ~k:2 ?evict_after_rounds:evict ()))
      ~steps:60.0 ~churn:crash ()
  in
  let dead_reference_fraction evict =
    (* Snapshot the final views; crashed nodes report empty views, which
       identifies them. *)
    let final_views = ref [||] in
    let observer ~time:_ ~views = final_views := Array.init n views in
    let r = Runner.run ~observer (scenario evict) in
    check_bool "some nodes crashed" true (r.Runner.nodes_churned > 5);
    let views = !final_views in
    let is_dead u = Array.length views.(u) = 0 in
    let dead_refs = ref 0 and total_refs = ref 0 in
    Array.iteri
      (fun u view ->
        if not (is_dead u) then
          Array.iter
            (fun p ->
              incr total_refs;
              if is_dead (Basalt_proto.Node_id.to_int p) then incr dead_refs)
            view)
      views;
    float_of_int !dead_refs /. float_of_int (max 1 !total_refs)
  in
  let with_eviction = dead_reference_fraction (Some 3) in
  let without = dead_reference_fraction None in
  check_bool
    (Printf.sprintf "eviction sheds dead peers (%.3f < %.3f)" with_eviction
       without)
    true
    (with_eviction < 0.6 *. without)

(* --- Bandwidth --- *)

let bandwidth_accounting () =
  let r = Runner.run (tiny_scenario ()) in
  let b = r.Runner.bandwidth in
  check_bool "correct nodes sent messages" true (b.Runner.correct_messages > 0);
  check_bool "bytes consistent" true
    (b.Runner.correct_bytes >= b.Runner.correct_messages * 4);
  check_bool "adversary sent messages" true (b.Runner.adversary_messages > 0);
  (* view of 10 four-byte ids + 4-byte header *)
  check_bool "max datagram bounded" true (b.Runner.max_datagram <= 4 + (4 * 11));
  check_bool "fits MTU" true (b.Runner.max_datagram <= 1500)

let bandwidth_no_adversary () =
  let r = Runner.run (tiny_scenario ~f:0.0 ()) in
  check_int "no adversary bytes" 0 r.Runner.bandwidth.Runner.adversary_bytes;
  check_int "no adversary messages" 0
    r.Runner.bandwidth.Runner.adversary_messages

(* --- Link models in scenarios --- *)

let runner_with_loss_still_works () =
  let s =
    Scenario.make ~name:"lossy" ~n:60 ~f:0.1 ~force:2.0
      ~protocol:(Scenario.Basalt (Basalt_core.Config.make ~v:10 ~k:2 ()))
      ~steps:30.0
      ~loss:(Basalt_engine.Link.Loss.Bernoulli 0.3)
      ()
  in
  let r = Runner.run s in
  check_bool "messages dropped" true
    (r.Runner.transport.Basalt_engine.Engine.dropped > 0);
  check_bool "still produces samples" true
    (Array.exists (fun o -> o.Runner.node_samples_total > 0) r.Runner.per_node)

let runner_with_latency () =
  let s =
    Scenario.make ~name:"latent" ~n:60 ~f:0.1 ~force:2.0
      ~protocol:(Scenario.Basalt (Basalt_core.Config.make ~v:10 ~k:2 ()))
      ~steps:30.0
      ~latency:(Basalt_engine.Link.Latency.Uniform { lo = 0.0; hi = 0.5 })
      ()
  in
  let r = Runner.run s in
  check_bool "converges despite jitter" true
    (r.Runner.final.Measurements.view_byz < 0.5)

(* --- Sample histogram --- *)

let runner_sample_histogram () =
  let r = Runner.run (tiny_scenario ()) in
  let total = Array.fold_left ( + ) 0 r.Runner.sample_histogram in
  let emitted =
    Array.fold_left
      (fun acc o -> acc + o.Runner.node_samples_total)
      0 r.Runner.per_node
  in
  check_int "histogram matches emissions" emitted total;
  check_int "histogram covers all ids" 60
    (Array.length r.Runner.sample_histogram)

(* Metric snapshots and full JSONL traces from pooled runs are
   byte-identical to the sequential ones.  Each run
   creates its registry inside the worker (never shared), so this holds
   at any -j (DESIGN.md §8). *)
let obs_trace_parallel_determinism () =
  let s = tiny_scenario () in
  let seeds = [ 1; 2; 3; 4 ] in
  let render runs =
    String.concat "\n---\n"
      (List.map
         (fun (r : Runner.result) ->
           match r.Runner.obs with
           | None -> Alcotest.fail "tracing run should expose its sink"
           | Some sink ->
               Basalt_obs.Obs.render sink
               ^ Basalt_obs.Obs.events_to_jsonl sink)
         runs)
  in
  let run_seeds ?pool () =
    Basalt_parallel.Pool.map ?pool
      (fun seed -> Runner.run ~trace:true (Scenario.with_seed s seed))
      seeds
  in
  let sequential = render (run_seeds ()) in
  check_bool "trace is non-empty" true (String.length sequential > 1000);
  Basalt_parallel.Pool.with_pool ~domains:4 (fun pool ->
      let parallel = render (run_seeds ~pool ()) in
      Alcotest.(check string) "j=1 vs j=4 traces identical" sequential parallel)

(* Runs without tracing carry no sink and record no metrics: the
   zero-overhead configuration really is zero-interaction. *)
let obs_absent_by_default () =
  let r = Runner.run (tiny_scenario ()) in
  check_bool "no sink" true (r.Runner.obs = None);
  check_bool "no metrics in points" true
    (List.for_all
       (fun p -> p.Measurements.metrics = None)
       (Measurements.points r.Runner.series))

(* The codec meter's wiring: every message a protocol sends passes
   through [Metered.send], so its [msg_bytes] sketch counts exactly the
   [msgs_sent] counter and peaks at the [max_msg_bytes] gauge. *)
let obs_metered_sends () =
  let module Obs = Basalt_obs.Obs in
  List.iter
    (fun (proto, protocol) ->
      let r = Runner.run ~obs:true (tiny_scenario ~protocol ()) in
      match r.Runner.obs with
      | None -> Alcotest.fail "an obs run should expose its sink"
      | Some sink ->
          let sizes = Obs.sketch sink (proto ^ ".msg_bytes") in
          let sent =
            Obs.Counter.value (Obs.counter sink (proto ^ ".msgs_sent"))
          in
          check_bool (proto ^ " sent messages") true (sent > 0);
          check_int (proto ^ " one size per message") sent
            (Obs.Sketch.count sizes);
          check_float (proto ^ " largest size is the gauge")
            (Obs.Gauge.value (Obs.gauge sink (proto ^ ".max_msg_bytes")))
            (Obs.Sketch.vmax sizes))
    [
      ("basalt", Scenario.Basalt (Basalt_core.Config.make ~v:10 ~k:2 ()));
      ("brahms", Scenario.Brahms (Basalt_brahms.Brahms_config.make ~l:10 ()));
      ("sps", Scenario.Sps (Basalt_sps.Sps.config ~l:10 ()));
      ("classic", Scenario.Classic (Basalt_sps.Classic.config ~l:10 ()));
    ]

let () =
  Alcotest.run "sim"
    [
      ( "scenario",
        [
          Alcotest.test_case "defaults" `Quick scenario_defaults;
          Alcotest.test_case "validation" `Quick scenario_validation;
          Alcotest.test_case "accessors" `Quick scenario_accessors;
          Alcotest.test_case "with_seed" `Quick scenario_with_seed;
        ] );
      ( "measurements",
        [
          Alcotest.test_case "basics" `Quick measurements_basics;
          Alcotest.test_case "convergence" `Quick measurements_convergence;
          Alcotest.test_case "convergence views metric" `Quick
            measurements_convergence_views;
        ] );
      ( "report",
        [
          Alcotest.test_case "table" `Quick report_table;
          Alcotest.test_case "csv" `Quick report_csv;
          Alcotest.test_case "cells evaluated once" `Quick report_cells_once;
          Alcotest.test_case "write csv" `Quick report_write_csv;
          Alcotest.test_case "float cell" `Quick report_float_cell;
          Alcotest.test_case "sparkline" `Quick report_sparkline;
          Alcotest.test_case "series columns" `Quick report_series_columns;
        ] );
      ( "runner",
        [
          Alcotest.test_case "malicious layout" `Quick runner_is_malicious_layout;
          Alcotest.test_case "deterministic" `Quick runner_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick runner_seed_sensitivity;
          Alcotest.test_case "no adversary when f=0" `Quick
            runner_no_adversary_when_f0;
          Alcotest.test_case "series recorded" `Quick runner_series_recorded;
          Alcotest.test_case "per-node consistent" `Quick
            runner_per_node_consistent;
          Alcotest.test_case "observer called" `Quick runner_observer_called;
          Alcotest.test_case "graph metrics present" `Quick
            runner_graph_metrics_present;
          Alcotest.test_case "basalt beats classic" `Quick
            runner_basalt_beats_classic;
        ] );
      ( "churn",
        [
          Alcotest.test_case "validation" `Quick churn_validation;
          Alcotest.test_case "replacements expectation" `Quick
            churn_replacements_expectation;
          Alcotest.test_case "runner replaces nodes" `Quick
            churn_runner_replaces_nodes;
          Alcotest.test_case "zero without model" `Quick
            churn_zero_without_model;
          Alcotest.test_case "crash churn + eviction" `Quick
            churn_crash_and_eviction;
        ] );
      ( "bandwidth",
        [
          Alcotest.test_case "accounting" `Quick bandwidth_accounting;
          Alcotest.test_case "no adversary" `Quick bandwidth_no_adversary;
        ] );
      ( "link_models",
        [
          Alcotest.test_case "loss still works" `Quick
            runner_with_loss_still_works;
          Alcotest.test_case "latency jitter" `Quick runner_with_latency;
          Alcotest.test_case "sample histogram" `Quick runner_sample_histogram;
        ] );
      ( "obs",
        [
          Alcotest.test_case "trace determinism j=1 vs j=4" `Quick
            obs_trace_parallel_determinism;
          Alcotest.test_case "absent by default" `Quick obs_absent_by_default;
          Alcotest.test_case "metered sends" `Quick obs_metered_sends;
        ] );
    ]
