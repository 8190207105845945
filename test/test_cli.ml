(* Contract tests for the bin/repro command-line driver and the
   basalt-lint CLI, run as real subprocesses: automation (CI, the bench
   harness, shell scripts looping over targets) relies on exit codes,
   usage failures, and the machine-readable output schemas staying
   exactly as pinned here. *)

let repro = "../bin/repro.exe"

(* Runs [repro args], returning (exit_code, stdout, stderr). *)
let run_repro args =
  let out_file = Filename.temp_file "repro" ".out" in
  let err_file = Filename.temp_file "repro" ".err" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> %s" (Filename.quote repro) args
      (Filename.quote out_file) (Filename.quote err_file)
  in
  let code = Sys.command cmd in
  let read_all path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Sys.remove path;
    s
  in
  (code, read_all out_file, read_all err_file)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let unknown_target_fails () =
  let code, _out, err = run_repro "no-such-target -s quick" in
  Alcotest.(check bool) "non-zero exit" true (code <> 0);
  Alcotest.(check bool) "usage on stderr" true
    (contains ~needle:"Usage" err || contains ~needle:"usage" err)

let unknown_option_fails () =
  let code, _out, err = run_repro "fig2a --no-such-flag" in
  Alcotest.(check bool) "non-zero exit" true (code <> 0);
  Alcotest.(check bool) "diagnostic on stderr" true (String.length err > 0)

let help_succeeds () =
  let code, out, _err = run_repro "--help=plain" in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "lists targets" true (contains ~needle:"fig2a" out)

let subcommand_help_succeeds () =
  let code, _out, _err = run_repro "fig2a --help=plain" in
  Alcotest.(check int) "exit 0" 0 code

(* --- repro matrix: scenario-file exit codes (DESIGN.md §12) --- *)

(* Scripts looping over scenario files branch on these: 3 = unreadable
   file, 4 = parse/validation error, 5 = unwritable output path. *)

let scenarios = "../scenarios/"

let matrix_missing_file_exits_3 () =
  let code, _out, err = run_repro ("matrix " ^ scenarios ^ "missing.scn") in
  Alcotest.(check int) "exit 3" 3 code;
  Alcotest.(check bool) "names the path" true
    (contains ~needle:"repro matrix: cannot read" err
    && contains ~needle:"missing.scn" err)

let matrix_invalid_file_exits_4 () =
  let code, _out, err =
    run_repro ("matrix " ^ scenarios ^ "corpus/bad_number.scn")
  in
  Alcotest.(check int) "exit 4" 4 code;
  Alcotest.(check bool) "positioned diagnostic" true
    (contains ~needle:"corpus/bad_number.scn:2:12: bad number '0.x'" err)

(* The output-path probe must fail fast — before any simulation runs —
   for both `repro matrix FILE` and the named targets. *)
let unwritable_trace_exits_5 () =
  List.iter
    (fun target ->
      let code, _out, err =
        run_repro (target ^ " --trace /nonexistent-basalt/t.jsonl")
      in
      Alcotest.(check int) (target ^ " exit 5") 5 code;
      Alcotest.(check bool) (target ^ " names the path") true
        (contains ~needle:"repro: cannot write trace file /nonexistent-basalt/t.jsonl"
           err))
    [ "matrix " ^ scenarios ^ "smoke.scn"; "cost -s quick" ]

let unwritable_csv_exits_5 () =
  let code, _out, err =
    run_repro ("matrix " ^ scenarios ^ "smoke.scn --csv /proc/nope")
  in
  Alcotest.(check int) "exit 5" 5 code;
  Alcotest.(check bool) "names the directory" true
    (contains ~needle:"repro: cannot write csv directory /proc/nope" err)

(* --- repro matrix: determinism and golden tables --- *)

(* Strips the banner/footer lines that mention wall-clock or file
   paths, leaving the table body the assertions compare. *)
let table_body out =
  String.split_on_char '\n' out
  |> List.filter (fun l ->
         not
           (String.length l > 0
           && (l.[0] = '=' || l.[0] = '[' || l.[0] = '(')))
  |> String.concat "\n"

let matrix_j_determinism () =
  let code1, out1, _ = run_repro ("matrix " ^ scenarios ^ "smoke.scn -j 1") in
  let code2, out2, _ = run_repro ("matrix " ^ scenarios ^ "smoke.scn -j 2") in
  Alcotest.(check int) "-j 1 exit 0" 0 code1;
  Alcotest.(check int) "-j 2 exit 0" 0 code2;
  Alcotest.(check string) "tables bit-identical" (table_body out1)
    (table_body out2)

(* `repro robustness-net` runs the committed robustness_net.scn through
   the matrix driver; its quick-scale table body must match the golden
   file, captured from the OCaml module the scenario file replaced
   (~25 s, so `Slow — skipped under -q). *)
let matches_golden ~target ~golden () =
  let code, out, _ = run_repro (target ^ " -s quick") in
  let ic = open_in_bin ("golden/" ^ golden) in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check string) "table body matches golden" golden (table_body out)

let robustness_net_matches_golden =
  matches_golden ~target:"robustness-net" ~golden:"robustness_net.quick.txt"

(* The Avalanche networks and the live-deployment run drive samplers
   through the shared node assembly; their quick tables (~1 s each) were
   captured before that wiring was shared and must not move. *)
let dag_matches_golden = matches_golden ~target:"dag" ~golden:"dag.quick.txt"
let live_matches_golden = matches_golden ~target:"live" ~golden:"live.quick.txt"

(* The figure and extension targets run their committed scenario files
   (a few seconds each at quick scale; sybil ~8 s).  Each golden body
   was captured from the OCaml module the file replaced (the ports
   changed banners, not bodies; fig4's fit lines and sybil's closing
   prose are part of the body); robustness's second table, the latency
   sweep, was a list of printed values there and holds the same four
   numbers.  A golden file is named after the target with '-' as
   '_'. *)
let golden_case target =
  let slug = String.map (function '-' -> '_' | c -> c) target in
  Alcotest.test_case (target ^ " matches golden table") `Slow
    (matches_golden ~target ~golden:(slug ^ ".quick.txt"))

let ported_goldens =
  List.map golden_case
    [
      "fig2a";
      "fig2b";
      "fig2c";
      "fig2d";
      "fig3";
      "fig4";
      "sps-failure";
      "cost";
      "churn";
      "sybil";
      "robustness";
      "uniformity";
    ]

(* A target that runs several scenario files traces the first to FILE
   and each later one next to it, named after the file. *)
let multi_file_trace () =
  let dir = Filename.temp_dir "repro" "trace" in
  let path = Filename.concat dir "t.jsonl" in
  let code, out, _ =
    run_repro ("robustness -s quick -j 2 --trace " ^ Filename.quote path)
  in
  Alcotest.(check int) "exit 0" 0 code;
  let later = Filename.concat dir "t.robustness_latency.jsonl" in
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " announced") true
        (contains ~needle:("(trace written to " ^ p ^ ")") out);
      Alcotest.(check bool) (p ^ " non-empty") true
        (In_channel.with_open_bin p In_channel.length > 0L);
      Sys.remove p)
    [ path; later ];
  Sys.rmdir dir

(* --- bench_gate subcommands --- *)

let bench_gate = "../tool/bench_gate/main.exe"

let run_gate args =
  let out_file = Filename.temp_file "gate" ".out" in
  let err_file = Filename.temp_file "gate" ".err" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> %s" (Filename.quote bench_gate) args
      (Filename.quote out_file) (Filename.quote err_file)
  in
  let code = Sys.command cmd in
  let read_all path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Sys.remove path;
    s
  in
  (code, read_all out_file, read_all err_file)

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let bench_current ns =
  Printf.sprintf "{\"unit\": \"ns/run\", \"groups\": {\"g\": {\"t\": %s}}}" ns

(* `append` emits the documented one-line record; the schema is pinned
   byte-for-byte because CI artifacts accumulate these lines across
   runs and `report` must keep reading old ones. *)
let gate_append_record_pinned () =
  let cur = Filename.temp_file "bench" ".json" in
  let hist = Filename.temp_file "bench" ".jsonl" in
  Sys.remove hist;
  write_file cur (bench_current "100.5");
  let code, _out, _ =
    Printf.ksprintf run_gate "append --history %s --current %s --label base"
      (Filename.quote hist) (Filename.quote cur)
  in
  Alcotest.(check int) "append exit 0" 0 code;
  let ic = open_in_bin hist in
  let line = input_line ic in
  close_in ic;
  Alcotest.(check string) "record schema"
    "{\"version\":1,\"label\":\"base\",\"unit\":\"ns/run\",\"groups\":{\"g\":{\"t\":100.5}}}"
    line;
  Sys.remove cur;
  Sys.remove hist

(* `report` trends the history and flags last/best over tolerance; it
   stays informational (exit 0) either way. *)
let gate_report_flags_regression () =
  let hist = Filename.temp_file "bench" ".jsonl" in
  write_file hist
    ("{\"version\":1,\"label\":\"a\",\"unit\":\"ns/run\",\"groups\":{\"g\":{\"t\":100}}}\n"
   ^ "{\"version\":1,\"label\":\"b\",\"unit\":\"ns/run\",\"groups\":{\"g\":{\"t\":450}}}\n");
  let code, out, _ =
    Printf.ksprintf run_gate "report --history %s" (Filename.quote hist)
  in
  Alcotest.(check int) "informational exit 0" 0 code;
  Alcotest.(check bool) "lists both runs" true (contains ~needle:"a, b" out);
  Alcotest.(check bool) "flags the 4.5x entry" true
    (contains ~needle:"REGR" out);
  let code, out, _ =
    Printf.ksprintf run_gate "report --history %s --tolerance 5"
      (Filename.quote hist)
  in
  Alcotest.(check int) "looser tolerance exit 0" 0 code;
  Alcotest.(check bool) "no flag under tolerance" true
    (not (contains ~needle:"REGR" out));
  Sys.remove hist

let gate_report_rejects_malformed () =
  let hist = Filename.temp_file "bench" ".jsonl" in
  write_file hist
    "{\"version\":1,\"label\":\"a\",\"unit\":\"ns/run\",\"groups\":{\"g\":{\"t\":100}}}\nnot json\n";
  let code, _out, err =
    Printf.ksprintf run_gate "report --history %s" (Filename.quote hist)
  in
  Alcotest.(check int) "malformed exits 2" 2 code;
  Alcotest.(check bool) "line number in diagnostic" true
    (contains ~needle:":2:" err);
  Sys.remove hist

(* The pre-subcommand CI spelling must keep working. *)
let gate_legacy_spelling () =
  let cur = Filename.temp_file "bench" ".json" in
  write_file cur (bench_current "100");
  let code, out, _ =
    Printf.ksprintf run_gate "--baseline %s --current %s" (Filename.quote cur)
      (Filename.quote cur)
  in
  Alcotest.(check int) "legacy gate exit 0" 0 code;
  Alcotest.(check bool) "compared something" true
    (contains ~needle:"1 compared, 0 regressions" out);
  let code, _out, _ =
    Printf.ksprintf run_gate "gate --baseline %s --current %s"
      (Filename.quote cur) (Filename.quote cur)
  in
  Alcotest.(check int) "explicit gate exit 0" 0 code;
  let code, _out, err = run_gate "frobnicate" in
  Alcotest.(check int) "unknown subcommand exits 2" 2 code;
  Alcotest.(check bool) "usage on stderr" true (contains ~needle:"usage" err);
  Sys.remove cur

(* --- basalt-lint CLI --- *)

let lint = "../tool/lint/main.exe"

let run_lint args =
  let out_file = Filename.temp_file "lint" ".out" in
  let err_file = Filename.temp_file "lint" ".err" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> %s" (Filename.quote lint) args
      (Filename.quote out_file) (Filename.quote err_file)
  in
  let code = Sys.command cmd in
  let read_all path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Sys.remove path;
    s
  in
  (code, read_all out_file, read_all err_file)

let fixture name = "../tool/lint/fixtures/" ^ name

let fold_evict_cmt =
  "../tool/lint/fixtures_typed/.lint_fixtures_typed.objs/byte/\
   lint_fixtures_typed__D9_fold_evict.cmt"

(* Exit code 0 = clean, 1 = findings, 2 = usage/parse error — scripts
   branch on the distinction, so each code is pinned separately. *)
let lint_exit_codes () =
  let code, out, _ = run_lint ("--rules D2 " ^ fixture "d1_random.ml") in
  Alcotest.(check int) "clean run exits 0" 0 code;
  Alcotest.(check string) "clean text output is empty" "" out;
  let code, _, _ = run_lint (fixture "d1_random.ml") in
  Alcotest.(check int) "findings exit 1" 1 code;
  let code, _, err = run_lint "--format bogus" in
  Alcotest.(check int) "unknown format exits 2" 2 code;
  Alcotest.(check bool) "diagnostic on stderr" true (String.length err > 0);
  let code, _, _ = run_lint "--rules D42 ." in
  Alcotest.(check int) "unknown rule exits 2" 2 code;
  let code, _, _ = run_lint "--root /nonexistent-basalt" in
  Alcotest.(check int) "bad root exits 2" 2 code;
  let code, _, _ = run_lint "--cmt x.cmt foo.ml bar.ml" in
  Alcotest.(check int) "--cmt without --as exits 2" 2 code

(* The JSON schema is the machine interface CI archives; both the empty
   and non-empty shapes are pinned byte-for-byte / by fragment. *)
let lint_json_schema () =
  let code, out, _ =
    run_lint ("--format json --rules D2 " ^ fixture "d1_random.ml")
  in
  Alcotest.(check int) "clean exits 0" 0 code;
  Alcotest.(check string) "empty findings shape"
    "{\n  \"version\": 1,\n  \"findings\": []\n}\n" out;
  let code, out, _ =
    run_lint ("--format json --as lib/x.ml " ^ fixture "d1_random.ml")
  in
  Alcotest.(check int) "findings still exit 1" 1 code;
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json contains " ^ needle) true
        (contains ~needle out))
    [
      "\"version\": 1";
      "\"findings\": [";
      "{\"file\": \"lib/x.ml\", \"line\": 2, \"rule\": \"D1\", \"message\": \"";
    ]

let lint_sarif_output () =
  let code, out, _ =
    run_lint ("--format sarif --as lib/x.ml " ^ fixture "d1_random.ml")
  in
  Alcotest.(check int) "findings exit 1" 1 code;
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("sarif contains " ^ needle) true
        (contains ~needle out))
    [
      "\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\"";
      "\"version\": \"2.1.0\"";
      "\"name\": \"basalt-lint\"";
      "\"id\": \"D9\"";
      "\"ruleId\": \"D1\"";
      "\"artifactLocation\": {\"uri\": \"lib/x.ml\"}";
      "\"region\": {\"startLine\": 2}";
    ];
  (* A clean run still emits a structurally valid SARIF document. *)
  let code, out, _ =
    run_lint ("--format sarif --rules D2 " ^ fixture "d1_random.ml")
  in
  Alcotest.(check int) "clean exits 0" 0 code;
  Alcotest.(check bool) "empty results array" true
    (contains ~needle:"\"results\": []" out)

let lint_rules_filtering () =
  let typed_args rules =
    Printf.sprintf "--as lib/d9_fold_evict.ml --cmt %s --rules %s %s"
      fold_evict_cmt rules "../tool/lint/fixtures_typed/d9_fold_evict.ml"
  in
  let code, out, _ = run_lint (typed_args "D9,D10") in
  Alcotest.(check int) "D9 finding reported" 1 code;
  Alcotest.(check bool) "at the eviction line" true
    (contains ~needle:"lib/d9_fold_evict.ml:21:D9:" out);
  let code, out, _ = run_lint (typed_args "D10") in
  Alcotest.(check int) "D10-only run is clean" 0 code;
  Alcotest.(check string) "and silent" "" out

let () =
  Alcotest.run "cli"
    [
      ( "repro",
        [
          Alcotest.test_case "unknown target fails" `Quick unknown_target_fails;
          Alcotest.test_case "unknown option fails" `Quick unknown_option_fails;
          Alcotest.test_case "--help succeeds" `Quick help_succeeds;
          Alcotest.test_case "subcommand --help succeeds" `Quick
            subcommand_help_succeeds;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "missing file exits 3" `Quick
            matrix_missing_file_exits_3;
          Alcotest.test_case "invalid file exits 4" `Quick
            matrix_invalid_file_exits_4;
          Alcotest.test_case "unwritable trace exits 5" `Quick
            unwritable_trace_exits_5;
          Alcotest.test_case "unwritable csv exits 5" `Quick
            unwritable_csv_exits_5;
          Alcotest.test_case "-j determinism" `Quick matrix_j_determinism;
          Alcotest.test_case "robustness-net matches golden table" `Slow
            robustness_net_matches_golden;
          Alcotest.test_case "dag matches golden table" `Quick
            dag_matches_golden;
          Alcotest.test_case "live matches golden table" `Quick
            live_matches_golden;
          Alcotest.test_case "multi-file trace paths" `Slow multi_file_trace;
        ]
        @ ported_goldens );
      ( "bench_gate",
        [
          Alcotest.test_case "append record pinned" `Quick
            gate_append_record_pinned;
          Alcotest.test_case "report flags regressions" `Quick
            gate_report_flags_regression;
          Alcotest.test_case "report rejects malformed history" `Quick
            gate_report_rejects_malformed;
          Alcotest.test_case "legacy gate spelling" `Quick gate_legacy_spelling;
        ] );
      ( "lint",
        [
          Alcotest.test_case "exit codes" `Quick lint_exit_codes;
          Alcotest.test_case "json schema" `Quick lint_json_schema;
          Alcotest.test_case "sarif output" `Quick lint_sarif_output;
          Alcotest.test_case "--rules filtering" `Quick lint_rules_filtering;
        ] );
    ]
