(* Whole-tree driver for basalt-lint: runs the untyped tier over every
   source file, the typed tier over every [.cmt] the build left behind,
   merges the findings through the suppression machinery, and turns
   unused suppressions into D11 findings.

   Phasing is determinism-driven: parsing and comment lexing use
   compiler-libs global state and stay on the submitting domain; the
   pure analysis passes (parsetree walks, [.cmt] unmarshalling and
   typedtree walks) fan out over a [Basalt_parallel.Pool], whose [map]
   collects results in input order — so findings come back in path order
   no matter how many domains run. *)

module L = Lint
module Pool = Basalt_parallel.Pool

type report = {
  findings : L.finding list;
  files_scanned : int;
  typed_covered : int;
}

(* ------------------------------------------------------------------ *)
(* .cmt discovery                                                      *)

let rec walk_cmts dir acc =
  if not (Sys.file_exists dir && Sys.is_directory dir) then acc
  else
    Array.fold_left
      (fun acc entry ->
        let full = Filename.concat dir entry in
        if Sys.is_directory full then walk_cmts full acc
        else if
          Filename.check_suffix entry ".cmt"
          || Filename.check_suffix entry ".cmti"
        then full :: acc
        else acc)
      acc
      (let entries = Sys.readdir dir in
       Array.sort String.compare entries;
       entries)

let find_cmts build_dir = List.sort String.compare (walk_cmts build_dir [])

(* ------------------------------------------------------------------ *)
(* Run                                                                 *)

let run ?(typed = false) ?(rules = L.all_rules) ?build_dir ?pool ~root ~allow
    () =
  let requested r = List.mem r rules in
  let files = L.source_files ~root in
  let file_set = Hashtbl.create 256 in
  List.iter (fun f -> Hashtbl.replace file_set f ()) files;
  (* Phase 1 (sequential): read + parse + pragma lexing. *)
  let parsed =
    List.map
      (fun f ->
        let source = L.read_file (Filename.concat root f) in
        let p, pragmas = L.parse_source ~rel_path:f source in
        (f, p, pragmas))
      files
  in
  (* Phase 2 (parallel): untyped analysis. *)
  let untyped_wanted = List.exists requested L.untyped_rules in
  let untyped_by_file = Hashtbl.create 256 in
  if untyped_wanted then
    List.iter
      (fun (f, fs) -> Hashtbl.replace untyped_by_file f fs)
      (Pool.map ?pool
         (fun (f, p, _) -> (f, L.analyze_parsed ~rel_path:f p))
         parsed);
  (* Phase 3 (parallel): typed analysis over discovered .cmt/.cmti
     files.  Each names its source; only units inside the scanned tree
     or among the programs participate.  Unreadable files are skipped —
     D9/D10 degrade to "not checked here", which the D11 audit
     respects; D12 instead refuses to run (below). *)
  let typed_wanted = typed && List.exists requested L.typed_rules in
  let d12_wanted = typed && requested L.D12 in
  let programs = if d12_wanted then L.program_sources ~root else [] in
  let known = Hashtbl.copy file_set in
  List.iter (fun f -> Hashtbl.replace known f ()) programs;
  let typed_by_file = Hashtbl.create 64 in
  let d12_by_file = Hashtbl.create 256 in
  if typed_wanted then begin
    let bdir =
      match build_dir with
      | Some d -> d
      | None -> Filename.concat root "_build/default"
    in
    let results =
      Pool.map ?pool
        (fun cmt_path ->
          match Cmt_format.read_cmt cmt_path with
          | exception _ -> None
          | cmt -> (
              match cmt.Cmt_format.cmt_sourcefile with
              | Some src when Hashtbl.mem known (L.normalize_path src) ->
                  let src = L.normalize_path src in
                  let findings =
                    match cmt.Cmt_format.cmt_annots with
                    | Cmt_format.Implementation str
                      when Hashtbl.mem file_set src ->
                        Some (Typed.lint_structure ~rel_path:src str)
                    | _ -> None
                  in
                  let unit =
                    if d12_wanted then Typed.d12_unit ~rel_path:src cmt
                    else None
                  in
                  Some (src, findings, unit)
              | _ -> None))
        (find_cmts bdir)
    in
    List.iter
      (function
        | Some (f, findings, unit) ->
            Option.iter
              (fun fs ->
                if not (Hashtbl.mem typed_by_file f) then
                  Hashtbl.add typed_by_file f fs)
              findings;
            Option.iter
              (fun u ->
                if not (Hashtbl.mem d12_by_file f) then
                  Hashtbl.add d12_by_file f u)
              unit
        | None -> ())
      results
  end;
  (* D12 is whole-program: a program unit without its .cmt would make
     the exports only it calls look dead, so a stale tree gets one
     finding naming the first such file and no verdict on any export. *)
  let d12_missing =
    List.filter
      (fun f -> not (Hashtbl.mem d12_by_file f))
      (programs
      @ List.filter
          (fun f -> L.in_dir "lib" f && Filename.check_suffix f ".mli")
          files)
  in
  let d12_ran = d12_wanted && d12_missing = [] in
  let d12_refusal =
    match d12_missing with
    | first :: rest when d12_wanted ->
        [
          {
            L.file = first;
            line = 1;
            rule = L.D12;
            message =
              Printf.sprintf
                "no .cmt/.cmti for this source%s: run `dune build @check` \
                 first; D12 judged no export"
                (match rest with
                | [] -> ""
                | _ -> Printf.sprintf " (nor for %d more)" (List.length rest));
          };
        ]
    | _ -> []
  in
  let d12_findings = Hashtbl.create 64 in
  if d12_ran then
    List.iter
      (fun (fd : L.finding) -> Hashtbl.add d12_findings fd.L.file fd)
      (Typed.unused_exports (List.of_seq (Hashtbl.to_seq_values d12_by_file)));
  (* D5 missing-.mli findings, grouped per .ml file so they flow through
     that file's suppressions. *)
  let missing_by_file = Hashtbl.create 16 in
  if requested L.D5 then
    List.iter
      (fun (fd : L.finding) -> Hashtbl.replace missing_by_file fd.L.file
          (fd :: (Option.value ~default:[]
                    (Hashtbl.find_opt missing_by_file fd.L.file))))
      (L.missing_mli_findings files);
  (* Phase 4 (sequential, path order): suppression + usage accounting. *)
  let audit = requested L.D11 in
  let all_used_entries = Hashtbl.create 16 in
  let acc_findings = ref [] in
  List.iter
    (fun (f, _, pragmas) ->
      let typed_avail = Hashtbl.mem typed_by_file f in
      let raw =
        Option.value ~default:[] (Hashtbl.find_opt untyped_by_file f)
        @ Option.value ~default:[] (Hashtbl.find_opt typed_by_file f)
        @ Option.value ~default:[] (Hashtbl.find_opt missing_by_file f)
        @ Hashtbl.find_all d12_findings f
      in
      let raw = List.filter (fun (fd : L.finding) -> requested fd.L.rule) raw in
      let kept, used_pragmas, used_entries =
        L.suppress ~allow ~pragmas raw
      in
      List.iter (fun i -> Hashtbl.replace all_used_entries i ()) used_entries;
      acc_findings := kept :: !acc_findings;
      if audit then begin
        (* A pragma is auditable only for rules that actually ran on
           this file: a D9 pragma is not stale in an untyped run, nor in
           a typed run where this file's .cmt was missing.  D12 runs on
           the whole tree or not at all. *)
        let checked r =
          requested r
          && ((List.mem r L.untyped_rules && untyped_wanted)
             || (List.mem r [ L.D9; L.D10 ] && typed_avail)
             || (r = L.D12 && d12_ran)
             || r = L.D5)
        in
        let seen = Hashtbl.create 8 in
        let stale =
          List.filter_map
            (fun (p : L.pragma) ->
              let key = (p.L.p_start, p.L.p_rule) in
              if Hashtbl.mem seen key then None
              else begin
                Hashtbl.replace seen key ();
                if checked p.L.p_rule && not (List.mem key used_pragmas)
                then
                  Some
                    {
                      L.file = f;
                      line = p.L.p_start;
                      rule = L.D11;
                      message =
                        Printf.sprintf
                          "stale pragma 'lint: allow %s': it suppressed \
                           nothing this run; remove it"
                          (L.rule_name p.L.p_rule);
                    }
                else None
              end)
            pragmas
        in
        acc_findings := stale :: !acc_findings
      end)
    parsed;
  (* Allowlist entries that fired for no file at all are stale.  Typed
     rules are only auditable when the typed tier ran; D11 entries can
     never fire (D11 is unsuppressible) and are always stale. *)
  if audit then begin
    let stale_entries =
      List.filter_map
        (fun (i, (rule, path, line)) ->
          let auditable =
            requested rule
            && ((List.mem rule L.untyped_rules && List.exists requested L.untyped_rules)
               || (List.mem rule [ L.D9; L.D10 ] && typed_wanted)
               || (rule = L.D12 && d12_ran)
               || rule = L.D11)
          in
          if auditable && not (Hashtbl.mem all_used_entries i) then
            Some
              {
                L.file = "tool/lint/allowlist.txt";
                line;
                rule = L.D11;
                message =
                  Printf.sprintf
                    "stale allowlist entry '%s %s': it suppressed nothing \
                     this run; remove it"
                    (L.rule_name rule) path;
              }
          else None)
        (List.mapi (fun i e -> (i, e)) (L.allow_entries allow))
    in
    acc_findings := stale_entries :: !acc_findings
  end;
  {
    findings = L.sort_findings (d12_refusal @ List.concat !acc_findings);
    files_scanned = List.length files;
    typed_covered = Hashtbl.length typed_by_file;
  }
