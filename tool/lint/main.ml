(* basalt-lint CLI.  Exit codes: 0 = clean, 1 = findings, 2 = usage or
   parse error.

   Tree mode (no FILE arguments) scans lib/ bin/ bench/ test/ under
   --root through Driver.run: untyped tier always, typed tier with
   --typed (reading .cmt files from --build-dir, default
   ROOT/_build/default — run `dune build @check` first), D11
   stale-suppression audit whenever D11 is among the requested rules.

   Single-file mode (FILE arguments) is the fixture harness: each file
   runs the untyped tier; with --as the single FILE is attributed to a
   repo-relative path for rule scoping, and --cmt adds the typed tier
   for that unit. *)

module Lint = Basalt_lint.Lint
module Typed = Basalt_lint.Typed
module Driver = Basalt_lint.Driver
module Output = Basalt_lint.Output

let usage =
  "basalt-lint: determinism & interface linter (rules D1-D12, see \
   DESIGN.md §6)\n\
   usage: main.exe [--root DIR] [--typed] [--format text|json|sarif]\n\
  \       [--rules D1,D9,...] [--allowlist FILE] [--build-dir DIR]\n\
  \       [-j N] [--as PATH] [--cmt FILE] [FILE...]\n\
   With no FILE arguments, scans lib/ bin/ bench/ test/ under --root;\n\
   D12 also reads the .cmt files of tool/ and examples/."

let fail_usage msg =
  prerr_endline ("basalt-lint: " ^ msg);
  exit 2

(* Reading a directory as a source file fails with an obscure EOVERFLOW,
   so a directory argument is rejected up front; a missing file still
   reaches the Sys_error handler below. *)
let require_file ~shown path =
  if Sys.file_exists path && Sys.is_directory path then
    fail_usage ("not a file: " ^ shown)

let () =
  let root = ref "." in
  let vpath = ref "" in
  let allowfile = ref "" in
  let cmtfile = ref "" in
  let build_dir = ref "" in
  let typed = ref false in
  let format = ref Output.Text in
  let rules = ref Lint.all_rules in
  let jobs = ref 1 in
  let files = ref [] in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR repo root to scan (default: .)");
      ( "--typed",
        Arg.Set typed,
        " enable the typed tier (D9/D10, and D12 over the whole build; \
         needs the .cmt files of dune build @check)" );
      ( "--format",
        Arg.String
          (fun s ->
            match Output.format_of_string s with
            | Some f -> format := f
            | None -> fail_usage ("unknown format: " ^ s)),
        "FMT output format: text (default), json, sarif" );
      ( "--rules",
        Arg.String
          (fun s ->
            rules :=
              List.map
                (fun r ->
                  match Lint.rule_of_string (String.trim r) with
                  | Some rule -> rule
                  | None -> fail_usage ("unknown rule: " ^ r))
                (String.split_on_char ',' s)),
        "D1,D9,... restrict to these rules (D11 enables the stale-\
         suppression audit)" );
      ( "--allowlist",
        Arg.Set_string allowfile,
        "FILE allowlist (default: ROOT/tool/lint/allowlist.txt)" );
      ( "--build-dir",
        Arg.Set_string build_dir,
        "DIR where to look for .cmt files (default: ROOT/_build/default)" );
      ( "-j",
        Arg.Set_int jobs,
        "N fan analysis over N domains (0 = all cores; default 1)" );
      ( "--as",
        Arg.Set_string vpath,
        "PATH treat the single FILE argument as repo-relative PATH for \
         rule scoping (fixture testing)" );
      ( "--cmt",
        Arg.Set_string cmtfile,
        "FILE also run the typed tier over this .cmt (single-file mode, \
         with --as)" );
    ]
  in
  Arg.parse spec (fun f -> files := f :: !files) usage;
  let allow =
    try
      Lint.load_allowlist
        (if !allowfile <> "" then !allowfile
         else Filename.concat !root "tool/lint/allowlist.txt")
    with Failure msg ->
      prerr_endline msg;
      exit 2
  in
  let requested r = List.mem r !rules in
  let findings =
    try
      match List.rev !files with
      | [] ->
          if !vpath <> "" || !cmtfile <> "" then
            fail_usage "--as/--cmt require a FILE argument";
          if not (Sys.file_exists !root && Sys.is_directory !root) then
            fail_usage ("not a directory: " ^ !root);
          let run pool =
            (Driver.run ~typed:!typed ~rules:!rules
               ?build_dir:(if !build_dir = "" then None else Some !build_dir)
               ?pool ~root:!root ~allow ())
              .Driver.findings
          in
          if !jobs = 1 then run None
          else
            Basalt_parallel.Pool.with_pool
              ?domains:(if !jobs = 0 then None else Some !jobs)
              (fun pool -> run (Some pool))
      | [ f ] when !vpath <> "" ->
          require_file ~shown:f f;
          let rel_path = !vpath in
          let parsed, pragmas =
            Lint.parse_source ~rel_path (Lint.read_file f)
          in
          let raw = Lint.analyze_parsed ~rel_path parsed in
          let raw =
            if !cmtfile <> "" then
              raw @ Typed.lint_cmt ~rel_path !cmtfile
            else raw
          in
          let raw = List.filter (fun fd -> requested fd.Lint.rule) raw in
          let kept, _, _ = Lint.suppress ~allow ~pragmas raw in
          Lint.sort_findings kept
      | _ :: _ :: _ when !vpath <> "" ->
          fail_usage "--as requires exactly one FILE"
      | fs ->
          if !cmtfile <> "" then fail_usage "--cmt requires --as";
          List.iter
            (fun f ->
              require_file ~shown:f
                (if Filename.is_relative f then Filename.concat !root f else f))
            fs;
          List.concat_map
            (fun f ->
              List.filter
                (fun fd -> requested fd.Lint.rule)
                (Lint.lint_file ~root:!root ~rel_path:f ~allow))
            fs
    with
    | Lint.Parse_error (file, line, msg) ->
        Printf.eprintf "%s:%d: parse error: %s\n" file line msg;
        exit 2
    | Typed.Cmt_error (file, msg) ->
        Printf.eprintf "%s: cmt error: %s\n" file msg;
        exit 2
    | Sys_error msg -> fail_usage msg
  in
  Output.print Format.std_formatter !format findings;
  if findings <> [] then exit 1
