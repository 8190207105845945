(* Tests for the basalt-lint determinism & interface linter (tool/lint).

   Five layers:
   - inline fixture snippets per rule D1–D8, asserting the exact
     [file:line:rule] diagnostics (and that clean variants stay clean);
   - suppression mechanics: `lint: allow` pragmas and the allowlist,
     including the D11 stale-suppression audit over synthetic trees;
   - typed-tier rules D9/D10 over the compiled fixtures in
     tool/lint/fixtures_typed (their .cmt files are dune deps of this
     test), both through the library and through the CLI;
   - QCheck2 properties: pragma suppression is line-position
     sensitive, and verdicts are independent of the order files are
     linted in (no compiler-libs state leaks between units);
   - a whole-repo run over the real sources (materialised into the build
     sandbox via the dune [deps] of this test) asserting zero findings,
     plus a CLI run over the checked-in fixture files. *)

module Lint = Basalt_lint.Lint
module Typed = Basalt_lint.Typed
module Driver = Basalt_lint.Driver

let check = Alcotest.check
let check_int = Alcotest.(check int)

(* [file:line:rule] triples of the findings for [source] linted as
   [rel_path], in order. *)
let lint ?(allow = Lint.empty_allowlist) ~rel_path source =
  List.map
    (fun (f : Lint.finding) -> (f.file, f.line, Lint.rule_name f.rule))
    (Lint.lint_source ~rel_path ~allow source)

let triples = Alcotest.(list (triple string int string))

(* --- D1: Random --- *)

let d1_flags_random () =
  check triples "Random.int flagged"
    [ ("lib/proto/bad.ml", 2, "D1") ]
    (lint ~rel_path:"lib/proto/bad.ml" "let f () =\n  Random.int 6\n");
  check triples "open Random flagged"
    [ ("bin/bad.ml", 1, "D1") ]
    (lint ~rel_path:"bin/bad.ml" "open Random\n");
  check triples "module alias flagged"
    [ ("lib/sim/bad.ml", 1, "D1") ]
    (lint ~rel_path:"lib/sim/bad.ml" "module R = Random\n");
  check triples "Stdlib.Random flagged"
    [ ("test/bad.ml", 1, "D1") ]
    (lint ~rel_path:"test/bad.ml" "let s = Stdlib.Random.bits ()\n")

let d1_exempts_prng () =
  check triples "lib/prng may reference Random"
    []
    (lint ~rel_path:"lib/prng/compat.ml" "let s = Random.bits ()\n")

(* --- D2: wall clocks --- *)

let d2_flags_wall_clocks () =
  check triples "all three clock reads flagged"
    [
      ("lib/engine/bad.ml", 1, "D2");
      ("lib/engine/bad.ml", 2, "D2");
      ("lib/engine/bad.ml", 3, "D2");
    ]
    (lint ~rel_path:"lib/engine/bad.ml"
       "let a = Unix.gettimeofday ()\nlet b = Unix.time ()\nlet c = Sys.time ()\n")

let d2_respects_allowlist () =
  let allow = Lint.allowlist_of_lines [ "D2 bin/clocky.ml" ] in
  check triples "allowlisted file is clean" []
    (lint ~allow ~rel_path:"bin/clocky.ml" "let a = Unix.gettimeofday ()\n");
  check triples "other files still flagged"
    [ ("bin/other.ml", 1, "D2") ]
    (lint ~allow ~rel_path:"bin/other.ml" "let a = Unix.gettimeofday ()\n")

(* --- D3: polymorphic hash --- *)

let d3_flags_hashtbl_hash () =
  check triples "Hashtbl.hash flagged everywhere, even tests"
    [ ("test/bad.ml", 1, "D3") ]
    (lint ~rel_path:"test/bad.ml" "let h x = Hashtbl.hash x\n");
  check triples "seeded variant too"
    [ ("lib/graph/bad.ml", 1, "D3") ]
    (lint ~rel_path:"lib/graph/bad.ml" "let h x = Hashtbl.seeded_hash 7 x\n");
  check triples "other Hashtbl functions fine" []
    (lint ~rel_path:"lib/graph/ok.ml" "let t = Hashtbl.create 16\n")

(* --- D4: polymorphic compare in protocol libraries --- *)

let d4_flags_poly_compare () =
  check triples "= on two unknowns flagged"
    [ ("lib/basalt_core/bad.ml", 1, "D4") ]
    (lint ~rel_path:"lib/basalt_core/bad.ml" "let f a b = a = b\n");
  check triples "compare as function value flagged"
    [ ("lib/brahms/bad.ml", 1, "D4") ]
    (lint ~rel_path:"lib/brahms/bad.ml" "let f xs = List.sort compare xs\n");
  check triples "List.mem flagged"
    [ ("lib/sps/bad.ml", 1, "D4") ]
    (lint ~rel_path:"lib/sps/bad.ml" "let f x xs = List.mem x xs\n")

let d4_allows_primitive_operands () =
  check triples "literal operand is fine" []
    (lint ~rel_path:"lib/basalt_core/ok.ml" "let f n = n = 0\n");
  check triples "constant constructor is fine" []
    (lint ~rel_path:"lib/basalt_core/ok.ml" "let f o = o <> None\n");
  check triples "arithmetic operand is fine" []
    (lint ~rel_path:"lib/proto/ok.ml" "let f a b c = a - b > c\n");
  check triples "M.length / M.compare operands are fine" []
    (lint ~rel_path:"lib/sps/ok.ml"
       "let f a xs = Array.length xs > a\nlet g a b = Int.compare a b < 0\n")

let d4_out_of_scope_dirs () =
  check triples "lib/graph may use polymorphic compare" []
    (lint ~rel_path:"lib/graph/ok.ml" "let f a b = a = b\n");
  check triples "tests may use polymorphic compare" []
    (lint ~rel_path:"test/ok.ml" "let f a b = compare a b\n")

(* --- D5: interface documentation --- *)

let d5_flags_missing_doc () =
  check triples "undocumented val flagged"
    [ ("lib/codec/bad.mli", 4, "D5") ]
    (lint ~rel_path:"lib/codec/bad.mli"
       "val documented : int\n(** Fine. *)\n\nval undocumented : int\n");
  check triples "doc before the val also counts" []
    (lint ~rel_path:"lib/codec/ok.mli" "(** Fine. *)\nval documented : int\n")

let d5_scope_is_lib_mli () =
  check triples "bin interfaces exempt" []
    (lint ~rel_path:"bin/ok.mli" "val undocumented : int\n");
  check triples "ml files exempt from the doc rule" []
    (lint ~rel_path:"lib/codec/ok.ml" "let x = 1\n")

(* --- D6: console output --- *)

let d6_flags_printf () =
  check triples "print_endline and Printf.printf flagged"
    [ ("lib/proto/bad.ml", 1, "D6"); ("lib/proto/bad.ml", 2, "D6") ]
    (lint ~rel_path:"lib/proto/bad.ml"
       "let f msg = print_endline msg\nlet g () = Printf.printf \"x\"\n");
  check triples "sprintf is fine" []
    (lint ~rel_path:"lib/proto/ok.ml" "let f x = Printf.sprintf \"%d\" x\n")

let d6_scope_excludes_experiments () =
  check triples "lib/experiments may print" []
    (lint ~rel_path:"lib/experiments/ok.ml" "let f () = print_endline \"t\"\n");
  check triples "bin may print" []
    (lint ~rel_path:"bin/ok.ml" "let f () = print_endline \"t\"\n")

(* --- D7: concurrency primitives quarantined in lib/parallel --- *)

let d7_flags_concurrency () =
  check triples "Domain flagged in sim code"
    [ ("lib/sim/bad.ml", 1, "D7") ]
    (lint ~rel_path:"lib/sim/bad.ml"
       "let d = Domain.spawn (fun () -> ())\n");
  check triples "Atomic flagged in bin"
    [ ("bin/bad.ml", 1, "D7") ]
    (lint ~rel_path:"bin/bad.ml" "let c = Atomic.make 0\n");
  check triples "Mutex module alias flagged"
    [ ("lib/engine/bad.ml", 1, "D7") ]
    (lint ~rel_path:"lib/engine/bad.ml" "module M = Mutex\n");
  check triples "open Condition flagged"
    [ ("test/bad.ml", 1, "D7") ]
    (lint ~rel_path:"test/bad.ml" "open Condition\n");
  check triples "Stdlib.Domain flagged"
    [ ("lib/proto/bad.ml", 1, "D7") ]
    (lint ~rel_path:"lib/proto/bad.ml"
       "let n = Stdlib.Domain.recommended_domain_count ()\n")

let d7_exempts_lib_parallel () =
  check triples "lib/parallel may use the primitives" []
    (lint ~rel_path:"lib/parallel/pool.ml"
       "let d = Domain.spawn (fun () -> Atomic.make 0)\nlet m = Mutex.create ()\n");
  check triples "pragma suppresses D7 elsewhere" []
    (lint ~rel_path:"lib/sim/ok.ml"
       "(* lint: allow D7 — documented exception *)\nlet c = Atomic.make 0\n")

(* --- D8: observability confined to lib/obs + allowlisted boundaries --- *)

let d8_flags_obs_references () =
  check triples "Obs usage flagged in protocol code"
    [ ("lib/proto/bad.ml", 1, "D8"); ("lib/proto/bad.ml", 1, "D8") ]
    (lint ~rel_path:"lib/proto/bad.ml"
       "let c = Basalt_obs.Obs.counter Basalt_obs.Obs.disabled \"x\"\n");
  check triples "module alias flagged"
    [ ("lib/graph/bad.ml", 1, "D8") ]
    (lint ~rel_path:"lib/graph/bad.ml" "module Obs = Basalt_obs.Obs\n");
  check triples "open flagged"
    [ ("bin/bad.ml", 1, "D8") ]
    (lint ~rel_path:"bin/bad.ml" "open Basalt_obs\n")

let d8_exempts_lib_obs_and_allowlist () =
  check triples "lib/obs may reference itself" []
    (lint ~rel_path:"lib/obs/extra.ml" "module O = Basalt_obs.Obs\n");
  let allow = Lint.allowlist_of_lines [ "D8 lib/engine/" ] in
  check triples "allowlisted boundary is clean" []
    (lint ~allow ~rel_path:"lib/engine/engine.ml"
       "module Obs = Basalt_obs.Obs\n");
  check triples "pragma suppresses D8" []
    (lint ~rel_path:"lib/analysis/ok.ml"
       "(* lint: allow D8 — documented exception *)\n\
        module Obs = Basalt_obs.Obs\n")

(* --- suppression pragmas --- *)

let pragma_suppresses () =
  check triples "pragma on the same line" []
    (lint ~rel_path:"lib/basalt_core/ok.ml"
       "let f a b = a = b (* lint: allow D4 — both are ints *)\n");
  check triples "pragma on the previous line" []
    (lint ~rel_path:"lib/basalt_core/ok.ml"
       "(* lint: allow D4 — both are ints *)\nlet f a b = a = b\n");
  check triples "pragma names a different rule: still flagged"
    [ ("lib/basalt_core/bad.ml", 1, "D4") ]
    (lint ~rel_path:"lib/basalt_core/bad.ml"
       "let f a b = a = b (* lint: allow D1 *)\n");
  check triples "pragma two lines up does not apply"
    [ ("lib/basalt_core/bad.ml", 3, "D4") ]
    (lint ~rel_path:"lib/basalt_core/bad.ml"
       "(* lint: allow D4 *)\n\nlet f a b = a = b\n")

let allowlist_parsing () =
  let allow =
    Lint.allowlist_of_lines
      [ "# comment"; ""; "D2 bin/a.ml"; "D6 lib/sim/ # trailing comment" ]
  in
  check triples "directory prefix covers subtree" []
    (lint ~allow ~rel_path:"lib/sim/deep.ml" "let f () = print_endline \"x\"\n");
  check triples "prefix does not leak to siblings"
    [ ("lib/engine/e.ml", 1, "D6") ]
    (lint ~allow ~rel_path:"lib/engine/e.ml"
       "let f () = print_endline \"x\"\n");
  Alcotest.check_raises "unknown rule rejected"
    (Failure "allowlist: unknown rule: D99")
    (fun () -> ignore (Lint.allowlist_of_lines [ "D99 foo.ml" ]))

let allowlist_path_normalization () =
  (* `./`-prefixed and duplicated-slash entries must still match — a
     suppression that silently never fires is worse than none. *)
  let allow = Lint.allowlist_of_lines [ "D6 ./lib//sim/" ] in
  check triples "normalized dir entry covers subtree" []
    (lint ~allow ~rel_path:"lib/sim/deep.ml" "let f () = print_endline \"x\"\n");
  let allow = Lint.allowlist_of_lines [ "D2 ./bin/a.ml" ] in
  check triples "normalized file entry matches" []
    (lint ~allow ~rel_path:"bin/a.ml" "let t = Unix.time ()\n");
  check triples "finding path is normalized before comparison too" []
    (lint ~allow ~rel_path:"./bin//a.ml" "let t = Unix.time ()\n")

let allowlist_rejects_duplicates () =
  Alcotest.check_raises "exact duplicate rejected"
    (Failure "allowlist: duplicate entry: D2 bin/a.ml")
    (fun () ->
      ignore (Lint.allowlist_of_lines [ "D2 bin/a.ml"; "D2 bin/a.ml" ]));
  Alcotest.check_raises "duplicate modulo normalization rejected"
    (Failure "allowlist: duplicate entry: D2 bin/a.ml")
    (fun () ->
      ignore (Lint.allowlist_of_lines [ "D2 bin/a.ml"; "D2 ./bin//a.ml" ]));
  (* Same path under two rules is two distinct entries, not a dup. *)
  ignore (Lint.allowlist_of_lines [ "D2 bin/a.ml"; "D6 bin/a.ml" ])

let parse_error_reported () =
  match
    Lint.lint_source ~rel_path:"lib/proto/broken.ml"
      ~allow:Lint.empty_allowlist "let f =\nlet\n"
  with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Lint.Parse_error (file, _, _) ->
      check Alcotest.string "reported file" "lib/proto/broken.ml" file

(* --- the real repository is clean --- *)

(* The dune deps of this test materialise the repo sources in the build
   sandbox; the test runs in <sandbox>/test, so the repo root is [..]. *)
let repo_root = Filename.concat (Filename.dirname Sys.executable_name) ".."

let whole_repo_is_clean () =
  let allow =
    Lint.load_allowlist
      (Filename.concat repo_root "tool/lint/allowlist.txt")
  in
  (* Untyped tier + D11 audit: every pragma and allowlist entry for the
     untyped rules must still be earning its keep. *)
  let report = Driver.run ~root:repo_root ~allow () in
  List.iter
    (fun f -> Format.eprintf "unexpected: %a@." Lint.pp_finding f)
    report.Driver.findings;
  check_int "no findings in the repository" 0
    (List.length report.Driver.findings);
  check Alcotest.bool "scanned a plausible number of files" true
    (report.Driver.files_scanned > 50)

(* --- the CLI over the checked-in fixture files --- *)

let run_cli args =
  let exe = Filename.concat repo_root "tool/lint/main.exe" in
  let out = Filename.temp_file "basalt_lint" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe) args
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Sys.remove out;
  (code, s)

let fixture name =
  Filename.quote (Filename.concat repo_root ("tool/lint/fixtures/" ^ name))

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let cli_flags_fixtures () =
  let expect args substrings =
    let code, output = run_cli args in
    check_int ("exit code for " ^ args) 1 code;
    List.iter
      (fun sub ->
        if not (contains ~sub output) then
          Alcotest.failf "output of %s misses %S:\n%s" args sub output)
      substrings
  in
  expect
    (fixture "d1_random.ml")
    [ "d1_random.ml:2:D1:" ];
  expect
    (fixture "d2_wallclock.ml")
    [ "d2_wallclock.ml:2:D2:"; "d2_wallclock.ml:3:D2:" ];
  expect
    (fixture "d3_hashtbl_hash.ml")
    [ "d3_hashtbl_hash.ml:2:D3:" ];
  expect
    ("--as lib/basalt_core/d4_poly_compare.ml " ^ fixture "d4_poly_compare.ml")
    [
      "d4_poly_compare.ml:3:D4:";
      "d4_poly_compare.ml:4:D4:";
      "d4_poly_compare.ml:5:D4:";
    ];
  expect
    ("--as lib/basalt_core/d5_missing_doc.mli " ^ fixture "d5_missing_doc.mli")
    [ "d5_missing_doc.mli:7:D5:" ];
  expect
    ("--as lib/proto/d6_printf.ml " ^ fixture "d6_printf.ml")
    [ "d6_printf.ml:3:D6:"; "d6_printf.ml:4:D6:" ];
  expect
    (fixture "d7_domain.ml")
    [
      "d7_domain.ml:2:D7:";
      "d7_domain.ml:3:D7:";
      "d7_domain.ml:4:D7:";
      "d7_domain.ml:5:D7:";
    ];
  expect
    (fixture "d8_obs.ml")
    [
      "d8_obs.ml:2:D8:";
      "d8_obs.ml:4:D8:";
      "d8_obs.ml:5:D8:";
      "d8_obs.ml:7:D8:";
    ]

let cli_clean_repo_exits_zero () =
  let code, output = run_cli ("--root " ^ Filename.quote repo_root) in
  if code <> 0 then Alcotest.failf "expected exit 0, got %d:\n%s" code output

(* A directory where a FILE belongs is a usage error with a plain
   message (reading it as a file would fail with EOVERFLOW), in both the
   plain and the --as single-file modes; a missing file stays exit 2. *)
let cli_rejects_directory_argument () =
  let dir = Filename.quote (Filename.concat repo_root "tool/lint/fixtures") in
  List.iter
    (fun args ->
      let code, output = run_cli args in
      check_int ("exit code for " ^ args) 2 code;
      if not (contains ~sub:"basalt-lint: not a file: " output) then
        Alcotest.failf "output of %s misses the directory diagnostic:\n%s"
          args output)
    [ dir; "--as lib/basalt_core/x.ml " ^ dir ];
  let code, _ = run_cli (fixture "no_such_fixture.ml") in
  check_int "missing file exits 2" 2 code

(* --- typed tier: D9/D10 over the compiled fixtures --- *)

(* The .cmt files of tool/lint/fixtures_typed are dune deps of this
   test, so they sit at their build locations inside the sandbox. *)
let fixture_cmt name =
  Filename.concat repo_root
    ("tool/lint/fixtures_typed/.lint_fixtures_typed.objs/byte/\
      lint_fixtures_typed__" ^ String.capitalize_ascii name ^ ".cmt")

let typed_triples ~rel_path name =
  List.map
    (fun (f : Lint.finding) -> (f.file, f.line, Lint.rule_name f.rule))
    (Typed.lint_cmt ~rel_path (fixture_cmt name))

let d9_flags_fold_evict () =
  (* The PR 5 run_eviction bug class, pinned to the eviction call line. *)
  check triples "draw-through-helper under Hashtbl.fold flagged"
    [ ("lib/d9_fold_evict.ml", 21, "D9") ]
    (typed_triples ~rel_path:"lib/d9_fold_evict.ml" "d9_fold_evict")

let d9_sorted_version_is_clean () =
  check triples "collect + sort + evict is clean" []
    (typed_triples ~rel_path:"lib/d9_sorted_ok.ml" "d9_sorted_ok")

let d9_flags_unsorted_taint () =
  check triples "unsorted fold result feeding draws flagged"
    [ ("lib/d9_taint.ml", 21, "D9") ]
    (typed_triples ~rel_path:"lib/d9_taint.ml" "d9_taint")

let d9_flags_obs_emission () =
  check triples "telemetry inside fold flagged"
    [ ("lib/d9_obs_iter.ml", 10, "D9") ]
    (typed_triples ~rel_path:"lib/d9_obs_iter.ml" "d9_obs_iter")

let d10_flags_two_callees () =
  check triples "second handoff without split flagged"
    [ ("lib/d10_alias.ml", 17, "D10") ]
    (typed_triples ~rel_path:"lib/d10_alias.ml" "d10_alias")

let d10_split_version_is_clean () =
  check triples "split-per-consumer is clean" []
    (typed_triples ~rel_path:"lib/d10_split_ok.ml" "d10_split_ok")

let d10_flags_closure_capture () =
  check triples "closure capture + second consumer flagged"
    [ ("lib/d10_closure.ml", 17, "D10") ]
    (typed_triples ~rel_path:"lib/d10_closure.ml" "d10_closure")

let d10_scope_is_lib () =
  (* The same aliasing outside lib/ is not D10's business. *)
  check triples "test/ attribution is out of scope" []
    (typed_triples ~rel_path:"test/d10_alias.ml" "d10_alias")

(* The typed tier reports raw findings; the pragma variants are only
   clean once the CLI merges source pragmas in — both halves pinned. *)
let typed_pragmas_need_the_driver () =
  check triples "raw typed findings ignore pragmas"
    [ ("lib/d9_pragma.ml", 11, "D9") ]
    (typed_triples ~rel_path:"lib/d9_pragma.ml" "d9_pragma");
  check triples "raw D10 pragma fixture still flagged"
    [ ("lib/d10_pragma.ml", 17, "D10") ]
    (typed_triples ~rel_path:"lib/d10_pragma.ml" "d10_pragma")

let typed_fixture_source name =
  Filename.quote
    (Filename.concat repo_root ("tool/lint/fixtures_typed/" ^ name))

let cli_typed_fixtures () =
  let run name rules =
    run_cli
      (Printf.sprintf "--root %s --as lib/%s.ml --cmt %s --rules %s %s"
         (Filename.quote repo_root) name
         (Filename.quote (fixture_cmt name))
         rules
         (typed_fixture_source (name ^ ".ml")))
  in
  let code, output = run "d9_fold_evict" "D9,D10" in
  check_int "positive fixture exits 1" 1 code;
  if not (contains ~sub:"d9_fold_evict.ml:21:D9:" output) then
    Alcotest.failf "missing D9 finding:\n%s" output;
  let code, output = run "d9_fold_evict" "D10" in
  check_int "--rules D10 filters the D9 finding away" 0 code;
  if String.trim output <> "" then
    Alcotest.failf "expected no output, got:\n%s" output;
  let code, _ = run "d9_pragma" "D9,D10" in
  check_int "pragma-suppressed D9 fixture exits 0" 0 code;
  let code, _ = run "d10_pragma" "D9,D10" in
  check_int "pragma-suppressed D10 fixture exits 0" 0 code;
  let code, output = run "d10_closure" "D9,D10" in
  check_int "closure fixture exits 1" 1 code;
  if not (contains ~sub:"d10_closure.ml:17:D10:" output) then
    Alcotest.failf "missing D10 finding:\n%s" output

(* --- D11: stale-suppression audit over synthetic trees --- *)

let rec mkdirs d =
  if not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    (try Sys.mkdir d 0o755 with Sys_error _ -> ())
  end

let rec rm_tree d =
  if Sys.is_directory d then begin
    Array.iter (fun e -> rm_tree (Filename.concat d e)) (Sys.readdir d);
    Sys.rmdir d
  end
  else Sys.remove d

let with_temp_tree files f =
  let dir = Filename.temp_file "basalt_lint_tree" "" in
  Sys.remove dir;
  mkdirs dir;
  Fun.protect
    ~finally:(fun () -> rm_tree dir)
    (fun () ->
      List.iter
        (fun (path, content) ->
          let full = Filename.concat dir path in
          mkdirs (Filename.dirname full);
          let oc = open_out full in
          output_string oc content;
          close_out oc)
        files;
      f dir)

(* A well-behaved one-module lib/ tree (documented .mli, no findings)
   that pragmas and allowlist lines can be grafted onto. *)
let base_mod body =
  [
    ("lib/mod.ml", body);
    ("lib/mod.mli", "val f : int -> int\n(** Documented. *)\n");
  ]

let audit_triples ?(allow_lines = []) ?rules ~body () =
  with_temp_tree (base_mod body) (fun root ->
      let allow = Lint.allowlist_of_lines allow_lines in
      let report = Driver.run ?rules ~root ~allow () in
      List.map
        (fun (f : Lint.finding) -> (f.file, f.line, Lint.rule_name f.rule))
        report.Driver.findings)

let d11_flags_stale_pragma () =
  check triples "pragma that suppresses nothing becomes a finding"
    [ ("lib/mod.ml", 1, "D11") ]
    (audit_triples
       ~body:"(* lint: allow D2 — nothing here reads a clock *)\nlet f x = x + 1\n"
       ())

let d11_flags_stale_allowlist_entry () =
  check triples "allowlist entry that suppresses nothing becomes a finding"
    [ ("tool/lint/allowlist.txt", 2, "D11") ]
    (audit_triples ~allow_lines:[ "# header"; "D2 bin/ghost.ml" ]
       ~body:"let f x = x + 1\n" ())

let d11_spares_used_suppressions () =
  check triples "used pragma and used entry are not stale" []
    (audit_triples
       ~allow_lines:[ "D6 lib/mod.ml" ]
       ~body:
         "let f x = x + 1\n\
          (* lint: allow D2 — deliberate: injected clock base *)\n\
          let now = Unix.time ()\n\
          let noisy () = print_endline \"x\"\n"
       ())

let d11_is_tier_aware () =
  (* A D9 pragma cannot be judged stale by an untyped run: the rule
     never executed on that file. *)
  check triples "typed-rule pragma survives an untyped run" []
    (audit_triples
       ~body:"(* lint: allow D9 — typed-tier suppression *)\nlet f x = x + 1\n"
       ())

let d11_is_unsuppressible () =
  (* Neither a pragma nor an allowlist entry can silence D11 itself;
     the D11 entry is then stale by construction. *)
  check triples "D11 cannot be allowlisted away"
    [ ("lib/mod.ml", 1, "D11"); ("tool/lint/allowlist.txt", 1, "D11") ]
    (audit_triples ~allow_lines:[ "D11 lib/mod.ml" ]
       ~body:"(* lint: allow D2 — stale on purpose *)\nlet f x = x + 1\n"
       ())

let d11_off_when_not_requested () =
  check triples "omitting D11 from --rules disables the audit" []
    (audit_triples
       ~rules:[ Lint.D1; Lint.D2; Lint.D5; Lint.D6 ]
       ~body:"(* lint: allow D2 — stale on purpose *)\nlet f x = x + 1\n"
       ())

(* --- D12: exports without a program caller --- *)

(* The compiled units of tool/lint/fixtures_d12 (dune deps of this
   test), laid out as a synthetic tree: each unit's [.cmt]/[.cmti] is
   rewritten under [_build/default] of a temporary root with the
   recorded source path of its place in the tree, next to a copy of its
   source, so [Driver.run] pairs them as it pairs a real build with the
   repository. *)
let d12_units =
  [
    ("Exports", "exports.mli", "lib/fx/exports.mli", ".cmti");
    ("Exports", "exports.ml", "lib/fx/exports.ml", ".cmt");
    ("Whole", "whole.mli", "lib/fx/whole.mli", ".cmti");
    ("Whole", "whole.ml", "lib/fx/whole.ml", ".cmt");
    ("Prog", "prog.ml", "bin/prog.ml", ".cmt");
    ("T", "t.ml", "test/t.ml", ".cmt");
  ]

let reroot ~src ~sourcefile dst =
  let infos = Cmt_format.read_cmt src in
  let oc = open_out_bin dst in
  output_string oc Config.cmt_magic_number;
  output_value oc { infos with Cmt_format.cmt_sourcefile = Some sourcefile };
  close_out oc

let d12_triples ?(without = "") () =
  let dir = "tool/lint/fixtures_d12/" in
  let sources =
    List.map
      (fun (_, file, path, _) ->
        (path, Lint.read_file (Filename.concat repo_root (dir ^ file))))
      d12_units
  in
  with_temp_tree sources (fun root ->
      let build = Filename.concat root "_build/default" in
      mkdirs build;
      List.iteri
        (fun i (unit, _, path, ext) ->
          if path <> without then
            reroot
              ~src:
                (Filename.concat repo_root
                   (dir ^ ".lint_fixtures_d12.objs/byte/lint_fixtures_d12__"
                  ^ unit ^ ext))
              ~sourcefile:path
              (Filename.concat build (Printf.sprintf "u%d%s" i ext)))
        d12_units;
      let report =
        Driver.run ~typed:true ~rules:[ Lint.D11; Lint.D12 ] ~root
          ~allow:Lint.empty_allowlist ()
      in
      List.map
        (fun (f : Lint.finding) -> (f.file, f.line, Lint.rule_name f.rule))
        report.Driver.findings)

let d12_flags_test_and_self_only () =
  let findings = d12_triples () in
  check Alcotest.bool "export only a test calls is flagged" true
    (List.mem ("lib/fx/exports.mli", 9, "D12") findings);
  check Alcotest.bool "export only its own module calls is flagged" true
    (List.mem ("lib/fx/exports.mli", 12, "D12") findings)

let d12_counts_programs () =
  (* Direct, aliased and functor-argument uses from bin/prog.ml spare
     used_by_program (line 3), used_via_alias (6) and all of Whole. *)
  check triples "only the test-only and self-only exports, and the stale pragma"
    [
      ("lib/fx/exports.mli", 9, "D12");
      ("lib/fx/exports.mli", 12, "D12");
      ("lib/fx/exports.mli", 19, "D11");
    ]
    (d12_triples ())

let d12_pragmas () =
  let findings = d12_triples () in
  check Alcotest.bool "a pragma keeps an uncalled export" false
    (List.exists (fun (_, line, _) -> line = 16) findings);
  check Alcotest.bool "a pragma over a called export is stale" true
    (List.mem ("lib/fx/exports.mli", 19, "D11") findings)

let d12_refuses_a_stale_tree () =
  check triples "one finding naming the program without a .cmt"
    [ ("bin/prog.ml", 1, "D12") ]
    (d12_triples ~without:"bin/prog.ml" ())

(* --- properties --- *)

module Gen = QCheck2.Gen
module Test = QCheck2.Test

let prop_pragma_position =
  Test.make ~name:"pragma suppression is line-position sensitive"
    ~count:200
    ~print:(fun (gap, same_line) ->
      Printf.sprintf "gap=%d same_line=%b" gap same_line)
    (Gen.pair (Gen.int_bound 4) Gen.bool)
    (fun (gap, same_line) ->
      (* A pragma covers its own lines and the line directly below —
         nothing further, whatever the gap. *)
      let source =
        if same_line then "let f a b = a = b (* lint: allow D4 — t *)\n"
        else
          "(* lint: allow D4 — t *)\n"
          ^ String.concat "" (List.init gap (fun _ -> "\n"))
          ^ "let f a b = a = b\n"
      in
      let findings =
        Lint.lint_source ~rel_path:"lib/basalt_core/x.ml"
          ~allow:Lint.empty_allowlist source
      in
      (findings = []) = (same_line || gap = 0))

(* Each unit's verdict must be a function of that unit alone: linting
   leans on compiler-libs (a global lexer comment buffer among other
   state), so re-linting the same fixtures in a random order and getting
   identical verdicts pins the isolation. *)
let shuffle_fixtures =
  [
    ("lib/proto/s1.ml", "let f () = Random.int 3\n",
     [ ("lib/proto/s1.ml", 1, "D1") ]);
    ("lib/engine/s2.ml", "let t = Unix.time ()\n",
     [ ("lib/engine/s2.ml", 1, "D2") ]);
    ("test/s3.ml", "let h x = Hashtbl.hash x\n",
     [ ("test/s3.ml", 1, "D3") ]);
    ("lib/basalt_core/s4.ml", "let f a b = a = b\n",
     [ ("lib/basalt_core/s4.ml", 1, "D4") ]);
    ("lib/codec/s5.ml", "let f () = print_endline \"x\"\n",
     [ ("lib/codec/s5.ml", 1, "D6") ]);
    ("bin/s6.ml", "let c = Atomic.make 0\n",
     [ ("bin/s6.ml", 1, "D7") ]);
    ("lib/graph/s7.ml", "module O = Basalt_obs.Obs\n",
     [ ("lib/graph/s7.ml", 1, "D8") ]);
    ("lib/sim/s8.ml", "(* lint: allow D7 — t *)\nlet m = Mutex.create ()\n",
     []);
    ("lib/analysis/s9.ml", "let x = 1\n", []);
  ]

let prop_shuffle_invariance =
  let n = List.length shuffle_fixtures in
  Test.make ~name:"verdicts survive fixture shuffling" ~count:100
    ~print:(fun keys -> String.concat "," (List.map string_of_int keys))
    (Gen.list_repeat n (Gen.int_range 0 1_000_000))
    (fun keys ->
      let order =
        List.map snd
          (List.sort compare (List.combine keys (List.init n Fun.id)))
      in
      List.for_all
        (fun i ->
          let rel_path, source, expected = List.nth shuffle_fixtures i in
          lint ~rel_path source = expected)
        order)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "D1 flags Random" `Quick d1_flags_random;
          Alcotest.test_case "D1 exempts lib/prng" `Quick d1_exempts_prng;
          Alcotest.test_case "D2 flags wall clocks" `Quick d2_flags_wall_clocks;
          Alcotest.test_case "D2 respects allowlist" `Quick d2_respects_allowlist;
          Alcotest.test_case "D3 flags Hashtbl.hash" `Quick d3_flags_hashtbl_hash;
          Alcotest.test_case "D4 flags poly compare" `Quick d4_flags_poly_compare;
          Alcotest.test_case "D4 allows primitive operands" `Quick
            d4_allows_primitive_operands;
          Alcotest.test_case "D4 scoped to protocol libs" `Quick
            d4_out_of_scope_dirs;
          Alcotest.test_case "D5 flags missing docs" `Quick d5_flags_missing_doc;
          Alcotest.test_case "D5 scoped to lib mli" `Quick d5_scope_is_lib_mli;
          Alcotest.test_case "D6 flags console output" `Quick d6_flags_printf;
          Alcotest.test_case "D6 scoped outside experiments" `Quick
            d6_scope_excludes_experiments;
          Alcotest.test_case "D7 flags concurrency primitives" `Quick
            d7_flags_concurrency;
          Alcotest.test_case "D7 exempts lib/parallel" `Quick
            d7_exempts_lib_parallel;
          Alcotest.test_case "D8 flags Basalt_obs references" `Quick
            d8_flags_obs_references;
          Alcotest.test_case "D8 exempts lib/obs + allowlist" `Quick
            d8_exempts_lib_obs_and_allowlist;
        ] );
      ( "typed rules",
        [
          Alcotest.test_case "D9 flags the PR 5 fold eviction" `Quick
            d9_flags_fold_evict;
          Alcotest.test_case "D9 clean on sorted eviction" `Quick
            d9_sorted_version_is_clean;
          Alcotest.test_case "D9 flags unsorted taint" `Quick
            d9_flags_unsorted_taint;
          Alcotest.test_case "D9 flags telemetry in fold" `Quick
            d9_flags_obs_emission;
          Alcotest.test_case "D10 flags two callees" `Quick
            d10_flags_two_callees;
          Alcotest.test_case "D10 clean with splits" `Quick
            d10_split_version_is_clean;
          Alcotest.test_case "D10 flags closure capture" `Quick
            d10_flags_closure_capture;
          Alcotest.test_case "D10 scoped to lib" `Quick d10_scope_is_lib;
          Alcotest.test_case "typed findings are raw" `Quick
            typed_pragmas_need_the_driver;
          Alcotest.test_case "CLI typed fixtures" `Quick cli_typed_fixtures;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "pragmas" `Quick pragma_suppresses;
          Alcotest.test_case "allowlist parsing" `Quick allowlist_parsing;
          Alcotest.test_case "allowlist path normalization" `Quick
            allowlist_path_normalization;
          Alcotest.test_case "allowlist rejects duplicates" `Quick
            allowlist_rejects_duplicates;
          Alcotest.test_case "parse errors" `Quick parse_error_reported;
        ] );
      ( "stale suppressions (D11)",
        [
          Alcotest.test_case "stale pragma flagged" `Quick
            d11_flags_stale_pragma;
          Alcotest.test_case "stale allowlist entry flagged" `Quick
            d11_flags_stale_allowlist_entry;
          Alcotest.test_case "used suppressions spared" `Quick
            d11_spares_used_suppressions;
          Alcotest.test_case "tier-aware" `Quick d11_is_tier_aware;
          Alcotest.test_case "unsuppressible" `Quick d11_is_unsuppressible;
          Alcotest.test_case "off when not requested" `Quick
            d11_off_when_not_requested;
        ] );
      ( "dead exports (D12)",
        [
          Alcotest.test_case "test-only and self-only flagged" `Quick
            d12_flags_test_and_self_only;
          Alcotest.test_case "programs, aliases, functor arguments count"
            `Quick d12_counts_programs;
          Alcotest.test_case "pragma kept, stale pragma is D11" `Quick
            d12_pragmas;
          Alcotest.test_case "missing program .cmt refuses" `Quick
            d12_refuses_a_stale_tree;
        ] );
      Prop.suite "properties" [ prop_pragma_position; prop_shuffle_invariance ];
      ( "repository",
        [
          Alcotest.test_case "whole repo clean" `Quick whole_repo_is_clean;
          Alcotest.test_case "CLI flags fixtures" `Quick cli_flags_fixtures;
          Alcotest.test_case "CLI clean repo exits 0" `Quick
            cli_clean_repo_exits_zero;
          Alcotest.test_case "CLI rejects a directory" `Quick
            cli_rejects_directory_argument;
        ] );
    ]
