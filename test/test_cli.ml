(* Contract tests for the bin/repro command-line driver, the
   basalt-node daemon's argument checks and the basalt-lint CLI, run as
   real subprocesses: automation (CI, the bench harness, shell scripts
   looping over targets) relies on exit codes, usage failures, and the
   machine-readable output schemas staying exactly as pinned here. *)

let repro = "../bin/repro.exe"

(* Runs [exe args], returning (exit_code, stdout, stderr). *)
let run exe args =
  let out_file = Filename.temp_file "cli" ".out" in
  let err_file = Filename.temp_file "cli" ".err" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> %s" (Filename.quote exe) args
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

let run_repro = run repro

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

(* An out-of-range timeline value is a usage error: one line on stderr
   naming the rejected value and exit 1, before any run starts — not
   cmdliner's "internal error" and exit 125. *)
let timeline_rejects flag ~needle () =
  let code, out, err = run_repro ("timeline " ^ flag ^ " --steps 1") in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check string) "nothing on stdout" "" out;
  Alcotest.(check bool) ("stderr names " ^ needle) true
    (contains ~needle err);
  Alcotest.(check int) "one line" 1
    (List.length (String.split_on_char '\n' (String.trim err)))

(* An out-of-range daemon argument gets the same treatment, before the
   socket is bound: the test holds the listen port itself, so a daemon
   that reached its bind would fail there instead, with another
   message. *)
let node_rejects flag ~needle () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close sock) @@ fun () ->
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, port) -> port
    | Unix.ADDR_UNIX _ -> assert false
  in
  let code, out, err =
    run "../bin/basalt_node.exe"
      (Printf.sprintf "--listen 127.0.0.1:%d --duration 1 %s" port flag)
  in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check string) "nothing on stdout" "" out;
  Alcotest.(check bool) ("stderr names " ^ needle) true
    (contains ~needle err);
  Alcotest.(check int) "one line" 1
    (List.length (String.split_on_char '\n' (String.trim err)))

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

(* A NaN parses as a float but fails no range check, so it must be
   refused where the number is read: unrefused, (loss (bernoulli nan))
   ran as a lossless network. *)
let matrix_nan_number_exits_4 () =
  let code, _out, err =
    run_repro ("matrix " ^ scenarios ^ "corpus/nan_number.scn")
  in
  Alcotest.(check int) "exit 4" 4 code;
  Alcotest.(check bool) "positioned diagnostic" true
    (contains ~needle:"corpus/nan_number.scn:2:34: bad number 'nan'" err)

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

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The COMMANDS section of `repro --help=plain`: each target's name
   starts a line indented by exactly seven spaces. *)
let commands () =
  let code, out, _ = run_repro "--help=plain" in
  Alcotest.(check int) "--help exit 0" 0 code;
  let entry l =
    String.length l > 7 && String.sub l 0 7 = "       " && l.[7] <> ' '
  in
  let rec section = function
    | "COMMANDS" :: rest -> names rest
    | _ :: rest -> section rest
    | [] -> []
  and names = function
    | l :: _ when l <> "" && l.[0] <> ' ' -> []
    | l :: rest when entry l ->
        List.hd (String.split_on_char ' ' (String.trim l)) :: names rest
    | _ :: rest -> names rest
    | [] -> []
  in
  section (String.split_on_char '\n' out)

(* One case per golden file: `<slug>.quick.txt` pins the quick-scale
   table body of `repro <slug, '_' as '-'>`.  Each body was captured
   from the OCaml module its scenario file replaced (the ports changed
   banners, not bodies; fig4's fit lines and sybil's closing prose are
   part of the body), or, for dag and live, before their samplers were
   wired through the shared node assembly; robustness's golden holds
   both of its files' tables. *)
let goldens =
  Sys.readdir "golden" |> Array.to_list
  |> List.filter_map (fun f -> Filename.chop_suffix_opt ~suffix:".quick.txt" f)
  |> List.sort compare

let target_of slug = String.map (function '_' -> '-' | c -> c) slug

let golden_case slug =
  let target = target_of slug in
  Alcotest.test_case (target ^ " matches golden table") `Slow (fun () ->
      let code, out, _ = run_repro (target ^ " -s quick") in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check string) "table body matches golden"
        (read_file ("golden/" ^ slug ^ ".quick.txt"))
        (table_body out))

(* Every committed file with a (doc ...) line is a target and needs a
   golden; every golden must name a target. *)
let registry_consistent () =
  let targets = commands () in
  Sys.readdir scenarios |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".scn")
  |> List.iter (fun f ->
         match Basalt_scenario.Spec.load (scenarios ^ f) with
         | Error _ -> Alcotest.failf "%s does not load" f
         | Ok spec ->
             if Option.is_some spec.doc then
               let golden = Basalt_scenario.Spec.slug spec ^ ".quick.txt" in
               Alcotest.(check bool)
                 (f ^ " has golden/" ^ golden) true
                 (Sys.file_exists ("golden/" ^ golden)));
  List.iter
    (fun slug ->
      Alcotest.(check bool)
        (slug ^ ".quick.txt names a target") true
        (List.mem (target_of slug) targets))
    goldens

(* README.md spells every target as `name` or after `repro.exe -- `; a
   range such as fig2a-fig2d does not count. *)
let readme_lists_targets () =
  let readme = read_file "../README.md" in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        ("README.md names " ^ name) true
        (List.exists
           (fun needle -> contains ~needle readme)
           [
             "`" ^ name ^ "`";
             "repro.exe -- " ^ name ^ " ";
             "repro.exe -- " ^ name ^ "\n";
           ]))
    (commands ())

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
          Alcotest.test_case "timeline -v 0 is a usage error" `Quick
            (timeline_rejects "-v 0" ~needle:"v must be positive");
          Alcotest.test_case "timeline -n 0 is a usage error" `Quick
            (timeline_rejects "-n 0" ~needle:"n must be positive");
          Alcotest.test_case "timeline -f 2 is a usage error" `Quick
            (timeline_rejects "-f 2" ~needle:"f out of [0,1)");
          Alcotest.test_case "timeline -f nan is a usage error" `Quick
            (timeline_rejects "-f nan" ~needle:"f out of [0,1)");
          Alcotest.test_case "timeline -F nan is a usage error" `Quick
            (timeline_rejects "-F nan" ~needle:"negative force");
        ] );
      ( "basalt-node",
        [
          Alcotest.test_case "-v 0 is a usage error" `Quick
            (node_rejects "-v 0" ~needle:"v must be positive");
          Alcotest.test_case "--tau 0 is a usage error" `Quick
            (node_rejects "--tau 0" ~needle:"tau must be positive");
          Alcotest.test_case "--loss 2 is a usage error" `Quick
            (node_rejects "--loss 2" ~needle:"inject_loss must be in [0, 1]");
          Alcotest.test_case "--payload-size 100000 is a usage error" `Quick
            (node_rejects "--payload-size 100000 --publish-every 0.05"
               ~needle:"--payload-size must be in [0, 65487]");
          Alcotest.test_case "--payload-size 65488 is a usage error" `Quick
            (node_rejects "--payload-size 65488 --publish-every 0.05"
               ~needle:"--payload-size must be in [0, 65487]");
          Alcotest.test_case "--tau nan is a usage error" `Quick
            (node_rejects "--tau nan" ~needle:"tau must be positive");
          Alcotest.test_case "--rho nan is a usage error" `Quick
            (node_rejects "--rho nan" ~needle:"rho must be positive");
          Alcotest.test_case "--report-every nan is a usage error" `Quick
            (node_rejects "--report-every nan"
               ~needle:"--report-every must be > 0");
          Alcotest.test_case "--metrics-every nan is a usage error" `Quick
            (node_rejects "--metrics-every nan"
               ~needle:"--metrics-every must be >= 0");
          Alcotest.test_case "--loss nan is a usage error" `Quick
            (node_rejects "--loss nan" ~needle:"inject_loss must be in [0, 1]");
          Alcotest.test_case "--delay nan is a usage error" `Quick
            (node_rejects "--delay nan" ~needle:"inject_delay must be >= 0");
        ] );
      ( "matrix",
        [
          Alcotest.test_case "missing file exits 3" `Quick
            matrix_missing_file_exits_3;
          Alcotest.test_case "invalid file exits 4" `Quick
            matrix_invalid_file_exits_4;
          Alcotest.test_case "nan number exits 4" `Quick
            matrix_nan_number_exits_4;
          Alcotest.test_case "unwritable trace exits 5" `Quick
            unwritable_trace_exits_5;
          Alcotest.test_case "unwritable csv exits 5" `Quick
            unwritable_csv_exits_5;
          Alcotest.test_case "-j determinism" `Quick matrix_j_determinism;
          Alcotest.test_case "multi-file trace paths" `Slow multi_file_trace;
          Alcotest.test_case "registry consistent" `Quick registry_consistent;
          Alcotest.test_case "README names every target" `Quick
            readme_lists_targets;
        ]
        @ List.map golden_case goldens );
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
