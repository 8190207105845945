type rule = D1 | D2 | D3 | D4 | D5 | D6 | D7 | D8 | D9 | D10 | D11 | D12

let all_rules = [ D1; D2; D3; D4; D5; D6; D7; D8; D9; D10; D11; D12 ]

let rule_name = function
  | D1 -> "D1"
  | D2 -> "D2"
  | D3 -> "D3"
  | D4 -> "D4"
  | D5 -> "D5"
  | D6 -> "D6"
  | D7 -> "D7"
  | D8 -> "D8"
  | D9 -> "D9"
  | D10 -> "D10"
  | D11 -> "D11"
  | D12 -> "D12"

let rule_of_string s =
  List.find_opt (fun r -> rule_name r = s) all_rules

(* One-line summaries, used by --format sarif rule metadata and the
   CLI usage text.  The authoritative prose lives in DESIGN.md §6. *)
let rule_summary = function
  | D1 -> "no Random outside lib/prng; randomness flows from seeded \
           Basalt_prng.Rng streams"
  | D2 -> "no wall-clock reads outside allowlisted process boundaries"
  | D3 -> "no polymorphic Hashtbl.hash / seeded_hash / hash_param"
  | D4 -> "no polymorphic compare/equality in protocol libraries"
  | D5 -> "every lib module has an .mli and every exported val a doc \
           comment"
  | D6 -> "no direct console output in protocol libraries"
  | D7 -> "concurrency primitives confined to lib/parallel"
  | D8 -> "Basalt_obs references confined to lib/obs and allowlisted \
           instrumentation boundaries"
  | D9 -> "no PRNG draw, trace emit, or PRNG-feeding accumulation under \
           unordered Hashtbl iteration"
  | D10 -> "a Basalt_prng.Rng.t stream is owned by one callee at a time; \
            split before handing it to a second one"
  | D11 -> "every suppression (pragma or allowlist entry) must suppress \
            at least one finding per run"
  | D12 -> "every val a lib/ interface exports is referenced by a program \
            (lib/ outside its module, bin/, bench/, tool/, examples/)"

(* The tier each rule runs on: D1-D8 need only the parsetree; D9 and D10
   resolve identifiers and types on the typed tree (.cmt files), and D12
   joins every unit's typed tree into one whole-program pass; D11 is
   computed by the driver from suppression-usage accounting. *)
let untyped_rules = [ D1; D2; D3; D4; D5; D6; D7; D8 ]
let typed_rules = [ D9; D10; D12 ]

type finding = { file : string; line : int; rule : rule; message : string }

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%s: %s" f.file f.line (rule_name f.rule) f.message

let sort_findings fs =
  List.sort
    (fun a b ->
      match String.compare a.file b.file with
      | 0 -> (
          match Int.compare a.line b.line with
          | 0 -> (
              match String.compare (rule_name a.rule) (rule_name b.rule) with
              | 0 -> String.compare a.message b.message
              | c -> c)
          | c -> c)
      | c -> c)
    fs

(* ------------------------------------------------------------------ *)
(* Allowlist                                                           *)

type allow_entry = { a_rule : rule; a_path : string; a_line : int }
type allowlist = allow_entry list

let empty_allowlist = []
let allow_entries a = List.map (fun e -> (e.a_rule, e.a_path, e.a_line)) a

(* Normalises a repo-relative path so that `./lib//sim/` and `lib/sim/`
   compare equal: drops `.` segments and empty segments (duplicated or
   leading slashes), preserving the trailing `/` that marks a subtree
   prefix. *)
let normalize_path p =
  let subtree = String.length p > 0 && p.[String.length p - 1] = '/' in
  let parts =
    List.filter
      (fun s -> s <> "" && s <> ".")
      (String.split_on_char '/' p)
  in
  String.concat "/" parts ^ if subtree then "/" else ""

let allowlist_of_lines lines =
  let entries =
    List.concat
      (List.mapi
         (fun i line ->
           let lineno = i + 1 in
           let line =
             match String.index_opt line '#' with
             | Some j -> String.sub line 0 j
             | None -> line
           in
           let line = String.trim line in
           if line = "" then []
           else
             match String.index_opt line ' ' with
             | None -> failwith ("allowlist: malformed line: " ^ line)
             | Some j ->
                 let r = String.sub line 0 j in
                 let path =
                   String.trim (String.sub line j (String.length line - j))
                 in
                 let rule =
                   match rule_of_string r with
                   | Some rule -> rule
                   | None -> failwith ("allowlist: unknown rule: " ^ r)
                 in
                 [ { a_rule = rule; a_path = normalize_path path;
                     a_line = lineno } ])
         lines)
  in
  (* Duplicate entries can only hide a stale line, so they are rejected
     at load time rather than silently tolerated. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let key = rule_name e.a_rule ^ " " ^ e.a_path in
      if Hashtbl.mem seen key then
        failwith ("allowlist: duplicate entry: " ^ key);
      Hashtbl.replace seen key ())
    entries;
  entries

let load_allowlist path =
  if not (Sys.file_exists path) then empty_allowlist
  else
    let ic = open_in path in
    let rec read acc =
      match input_line ic with
      | line -> read (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    let lines = read [] in
    close_in ic;
    allowlist_of_lines lines

(* Index of the first entry exempting [rule] at [path], if any. *)
let allow_match allow rule path =
  let path = normalize_path path in
  let rec go i = function
    | [] -> None
    | e :: rest ->
        if
          e.a_rule = rule
          &&
          if String.length e.a_path > 0
             && e.a_path.[String.length e.a_path - 1] = '/'
          then String.starts_with ~prefix:e.a_path path
          else String.equal e.a_path path
        then Some i
        else go (i + 1) rest
  in
  go 0 allow

let allowlisted allow rule path = allow_match allow rule path <> None

(* ------------------------------------------------------------------ *)
(* Suppression pragmas                                                 *)

type pragma = { p_rule : rule; p_start : int; p_end : int }

exception Parse_error of string * int * string

(* Extracts `lint: allow D<k>` pragmas from one comment body. *)
let pragmas_of_comment text (loc : Location.t) =
  let tag = "lint: allow D" in
  let tl = String.length tag and n = String.length text in
  let rec digits j = if j < n && text.[j] >= '0' && text.[j] <= '9' then digits (j + 1) else j in
  let rec scan i acc =
    if i + tl > n then List.rev acc
    else if String.sub text i tl = tag then begin
      let stop = digits (i + tl) in
      let name = "D" ^ String.sub text (i + tl) (stop - (i + tl)) in
      let acc =
        match rule_of_string name with
        | Some rule ->
            { p_rule = rule;
              p_start = loc.loc_start.pos_lnum;
              p_end = loc.loc_end.pos_lnum }
            :: acc
        | None -> acc
      in
      scan stop acc
    end
    else scan (i + 1) acc
  in
  scan 0 []

(* Pragmas are comments, found by lexing: a pragma-shaped string literal
   (as in the lint test fixtures) is not a suppression.  The source is
   assumed to lex — callers parse it first. *)
let collect_pragmas ~rel_path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf rel_path;
  Lexer.init ();
  (try
     let rec drain () =
       match Lexer.token lexbuf with Parser.EOF -> () | _ -> drain ()
     in
     drain ()
   with _ -> ());
  List.concat_map
    (fun (text, loc) -> pragmas_of_comment text loc)
    (Lexer.comments ())

(* A pragma covers findings on the comment's own lines and the line
   directly below it. *)
let pragma_covers p rule line =
  p.p_rule = rule && p.p_start <= line && line <= p.p_end + 1

(* Applies the allowlist and pragma suppressions to raw findings of one
   file, also reporting which suppressions fired (for the D11 audit).
   Both kinds are consulted for every finding so that a pragma shadowed
   by an allowlist entry still counts as used.  D11 findings are not
   suppressible: the suppression surface must only shrink. *)
let suppress ~allow ~pragmas findings =
  let used_pragmas = ref [] and used_entries = ref [] in
  let kept =
    List.filter
      (fun f ->
        if f.rule = D11 then true
        else begin
          let entry = allow_match allow f.rule f.file in
          let ps = List.filter (fun p -> pragma_covers p f.rule f.line) pragmas in
          (match entry with
          | Some i -> used_entries := i :: !used_entries
          | None -> ());
          List.iter
            (fun p -> used_pragmas := (p.p_start, p.p_rule) :: !used_pragmas)
            ps;
          entry = None && ps = []
        end)
      findings
  in
  ( kept,
    List.sort_uniq compare !used_pragmas,
    List.sort_uniq compare !used_entries )

(* ------------------------------------------------------------------ *)
(* Path scoping                                                        *)

let in_dir dir path = String.starts_with ~prefix:(dir ^ "/") path
let d1_exempt path = in_dir "lib/prng" path

let d4_scope path =
  List.exists
    (fun d -> in_dir d path)
    [ "lib/proto"; "lib/basalt_core"; "lib/brahms"; "lib/sps" ]

let d5_scope path = in_dir "lib" path
let d6_scope path = in_dir "lib" path && not (in_dir "lib/experiments" path)
let d7_exempt path = in_dir "lib/parallel" path
let d8_exempt path = in_dir "lib/obs" path

(* ------------------------------------------------------------------ *)
(* Identifier classification                                           *)

(* Flattened [Longident.t] with any leading [Stdlib.] stripped, so that
   [Stdlib.compare] and [compare] classify identically. *)
let path_of_lid lid =
  match Longident.flatten lid with "Stdlib" :: rest -> rest | p -> p

let path_string p = String.concat "." p

let wall_clock_paths =
  [ [ "Unix"; "gettimeofday" ]; [ "Unix"; "time" ]; [ "Sys"; "time" ] ]

(* [Hashtbl.hash] and friends, however the module is reached. *)
let is_poly_hash = function
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ] -> true
  | _ -> false

let poly_operators =
  [ "="; "<>"; "=="; "!="; "<"; ">"; "<="; ">="; "compare"; "min"; "max" ]

(* Container helpers whose semantics embed polymorphic equality. *)
let poly_eq_helpers =
  [
    [ "List"; "mem" ];
    [ "List"; "memq" ];
    [ "List"; "assoc" ];
    [ "List"; "assoc_opt" ];
    [ "List"; "mem_assoc" ];
    [ "List"; "remove_assoc" ];
    [ "Array"; "mem" ];
    [ "Array"; "memq" ];
  ]

(* Concurrency primitives quarantined in lib/parallel (D7).  [Semaphore]
   rides along: it is sugar over the same primitives. *)
let concurrency_roots = [ "Domain"; "Mutex"; "Condition"; "Atomic"; "Semaphore" ]

let console_output_paths =
  [
    [ "print_endline" ];
    [ "print_string" ];
    [ "print_newline" ];
    [ "print_int" ];
    [ "print_float" ];
    [ "print_char" ];
    [ "print_bytes" ];
    [ "prerr_endline" ];
    [ "prerr_string" ];
    [ "prerr_newline" ];
    [ "Printf"; "printf" ];
    [ "Printf"; "eprintf" ];
    [ "Format"; "printf" ];
    [ "Format"; "eprintf" ];
    [ "Format"; "print_string" ];
    [ "Format"; "print_newline" ];
  ]

let arith_operators =
  [
    "+"; "-"; "*"; "/"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr";
    "+."; "-."; "*."; "/."; "**"; "~-"; "~-."; "abs"; "abs_float";
    "float_of_int"; "int_of_float"; "succ"; "pred"; "not"; "!";
  ]

(* An operand whose type is manifestly a primitive (int/float/bool/…),
   making a polymorphic comparison monomorphic and deterministic:
   literals, constant constructors, arithmetic expressions, and
   [M.length]/[M.compare]/[M.to_int]-shaped calls.  [!] is included
   because in this codebase refs under comparison are round/size
   counters; a ref holding an abstract value still trips the rule via
   the other operand. *)
let rec manifestly_primitive (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_construct (_, None) -> true
  | Pexp_variant (_, None) -> true
  | Pexp_constraint (e, _) -> manifestly_primitive e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match path_of_lid txt with
      | [ op ] -> List.mem op arith_operators
      | p -> (
          match List.rev p with
          | ("length" | "compare" | "to_int") :: _ -> true
          | _ -> false))
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Per-file lint state (raw findings; suppression is applied after)    *)

type state = {
  rel_path : string;
  mutable findings : finding list;
  (* Operator idents already judged as part of an enclosing application
     (keyed by position), so the bare-ident check does not re-flag them. *)
  handled_ops : (int * int, unit) Hashtbl.t;
}

let report st rule line message =
  st.findings <- { file = st.rel_path; line; rule; message } :: st.findings

(* ------------------------------------------------------------------ *)
(* Identifier checks (shared by expressions, module refs, opens)       *)

let check_path st (loc : Location.t) p =
  let line = loc.loc_start.pos_lnum in
  (match p with
  | "Random" :: _ when not (d1_exempt st.rel_path) ->
      report st D1 line
        (Printf.sprintf
           "reference to %s; all randomness must come from seeded \
            Basalt_prng.Rng streams (lib/prng is the only exemption)"
           (path_string p))
  | _ -> ());
  if List.mem p wall_clock_paths then
    report st D2 line
      (Printf.sprintf
         "wall-clock read %s; inject a clock function or allowlist this \
          process boundary in tool/lint/allowlist.txt"
         (path_string p));
  if is_poly_hash p then
    report st D3 line
      (Printf.sprintf
         "%s is the polymorphic hash and is banned; use Basalt_hashing or a \
          dedicated hash function"
         (path_string p));
  if d4_scope st.rel_path && List.mem p poly_eq_helpers then
    report st D4 line
      (Printf.sprintf
         "%s uses polymorphic equality; use an explicit equal function \
          (e.g. Node_id.equal)"
         (path_string p));
  if d6_scope st.rel_path && List.mem p console_output_paths then
    report st D6 line
      (Printf.sprintf
         "direct console output %s in a protocol library; route output \
          through the experiment/report layer"
         (path_string p));
  (match p with
  | root :: _
    when List.mem root concurrency_roots && not (d7_exempt st.rel_path) ->
      report st D7 line
        (Printf.sprintf
           "reference to %s; concurrency primitives are confined to \
            lib/parallel — fan work out through Basalt_parallel.Pool"
           (path_string p))
  | _ -> ());
  match p with
  | "Basalt_obs" :: _ when not (d8_exempt st.rel_path) ->
      report st D8 line
        (Printf.sprintf
           "reference to %s; instruments and telemetry are confined to \
            lib/obs and the allowlisted instrumentation boundaries \
            (tool/lint/allowlist.txt) — thread an Obs.t in, don't reach \
            for the module"
           (path_string p))
  | _ -> ()

let pos_key (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum)

(* D4: polymorphic comparison operators in protocol libraries. *)
let check_poly_operator st (e : Parsetree.expression) =
  if d4_scope st.rel_path then
    match e.pexp_desc with
    | Pexp_apply
        (({ pexp_desc = Pexp_ident { txt; loc }; _ } as fn), args)
      when (match path_of_lid txt with
           | [ op ] -> List.mem op poly_operators
           | _ -> false) ->
        let op = match path_of_lid txt with [ op ] -> op | _ -> "" in
        let plain =
          List.filter_map
            (fun (lbl, a) ->
              match lbl with Asttypes.Nolabel -> Some a | _ -> None)
            args
        in
        Hashtbl.replace st.handled_ops (pos_key fn.pexp_loc) ();
        (match plain with
        | a :: b :: _ ->
            if not (manifestly_primitive a || manifestly_primitive b) then
              report st D4 loc.loc_start.pos_lnum
                (Printf.sprintf
                   "polymorphic %s on non-primitive operands; use a \
                    dedicated comparison (Node_id.equal/compare, \
                    Int.compare, …)"
                   op)
        | _ ->
            report st D4 loc.loc_start.pos_lnum
              (Printf.sprintf
                 "polymorphic %s partially applied; pass a dedicated \
                  comparison instead"
                 op))
    | Pexp_ident { txt; loc }
      when (match path_of_lid txt with
           | [ op ] -> List.mem op poly_operators
           | _ -> false)
           && not (Hashtbl.mem st.handled_ops (pos_key e.pexp_loc)) ->
        let op = match path_of_lid txt with [ op ] -> op | _ -> "" in
        report st D4 loc.loc_start.pos_lnum
          (Printf.sprintf
             "polymorphic %s used as a function value; pass a dedicated \
              comparison (Node_id.equal, Int.compare, …)"
             op)
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* AST traversal                                                       *)

let make_iterator st =
  let default = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_path st loc (path_of_lid txt)
    | _ -> ());
    check_poly_operator st e;
    default.expr it e
  in
  let module_expr it (m : Parsetree.module_expr) =
    (match m.pmod_desc with
    | Pmod_ident { txt; loc } -> check_path st loc (path_of_lid txt)
    | _ -> ());
    default.module_expr it m
  in
  let open_description it (o : Parsetree.open_description) =
    check_path st o.popen_expr.loc (path_of_lid o.popen_expr.txt);
    default.open_description it o
  in
  let doc_attr (a : Parsetree.attribute) =
    a.attr_name.txt = "ocaml.doc" || a.attr_name.txt = "doc"
  in
  let signature_item it (s : Parsetree.signature_item) =
    (match s.psig_desc with
    | Psig_value vd
      when d5_scope st.rel_path
           && Filename.check_suffix st.rel_path ".mli"
           && not (List.exists doc_attr vd.pval_attributes) ->
        report st D5 vd.pval_name.loc.loc_start.pos_lnum
          (Printf.sprintf "val %s has no doc comment" vd.pval_name.txt)
    | _ -> ());
    default.signature_item it s
  in
  { default with expr; module_expr; open_description; signature_item }

(* ------------------------------------------------------------------ *)
(* Untyped tier entry points                                           *)

(* Parsing and comment lexing use compiler-libs global state (the lexer's
   comment buffer, [Location.input_name]), so they must stay on a single
   domain; [parsed] values are inert data that later analysis phases may
   consume from any domain (the driver fans them over a Pool). *)
type parsed =
  | Impl of Parsetree.structure
  | Intf of Parsetree.signature

let parse_source ~rel_path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf rel_path;
  Location.input_name := rel_path;
  let parsed =
    try
      if Filename.check_suffix rel_path ".mli" then
        Intf (Parse.interface lexbuf)
      else Impl (Parse.implementation lexbuf)
    with e ->
      let line =
        match e with
        | Syntaxerr.Error err ->
            (Syntaxerr.location_of_error err).loc_start.pos_lnum
        | _ -> 0
      in
      raise (Parse_error (rel_path, line, Printexc.to_string e))
  in
  (parsed, collect_pragmas ~rel_path source)

(* Raw (unsuppressed) findings of the untyped tier; pure. *)
let analyze_parsed ~rel_path parsed =
  let st = { rel_path; findings = []; handled_ops = Hashtbl.create 16 } in
  let it = make_iterator st in
  (match parsed with
  | Impl str -> it.structure it str
  | Intf sg -> it.signature it sg);
  sort_findings st.findings

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let lint_source ~rel_path ~allow source =
  let parsed, pragmas = parse_source ~rel_path source in
  let raw = analyze_parsed ~rel_path parsed in
  let kept, _, _ = suppress ~allow ~pragmas raw in
  kept

let lint_file ~root ~rel_path ~allow =
  let path =
    if Filename.is_relative rel_path then Filename.concat root rel_path
    else rel_path
  in
  lint_source ~rel_path ~allow (read_file path)

let scanned_dirs = [ "lib"; "bin"; "bench"; "test" ]

let rec walk root rel acc =
  let full = Filename.concat root rel in
  if Sys.is_directory full then
    Array.fold_left
      (fun acc entry ->
        if entry = "_build" || String.starts_with ~prefix:"." entry then acc
        else walk root (rel ^ "/" ^ entry) acc)
      acc
      (let entries = Sys.readdir full in
       Array.sort String.compare entries;
       entries)
  else if
    Filename.check_suffix rel ".ml" || Filename.check_suffix rel ".mli"
  then rel :: acc
  else acc

let files_under ~root dirs =
  List.sort String.compare
    (List.fold_left
       (fun acc dir ->
         if Sys.file_exists (Filename.concat root dir) then walk root dir acc
         else acc)
       [] dirs)

let source_files ~root = files_under ~root scanned_dirs

(* The code that runs: its references are what justify a lib/ export
   (D12).  Tests are not programs, and neither are the lint fixtures. *)
let is_program path =
  List.exists (fun d -> in_dir d path)
    [ "lib"; "bin"; "bench"; "tool"; "examples" ]
  && not (String.starts_with ~prefix:"tool/lint/fixtures" path)

let program_sources ~root =
  List.filter
    (fun f -> Filename.check_suffix f ".ml" && is_program f)
    (files_under ~root [ "lib"; "bin"; "bench"; "tool"; "examples" ])

(* Raw D5 findings for lib modules without an [.mli]; file-level, so the
   driver routes them through the same suppression machinery. *)
let missing_mli_findings files =
  let files_set = Hashtbl.create 256 in
  List.iter (fun f -> Hashtbl.replace files_set f ()) files;
  List.filter_map
    (fun f ->
      if
        in_dir "lib" f
        && Filename.check_suffix f ".ml"
        && not (Hashtbl.mem files_set (f ^ "i"))
      then
        Some
          {
            file = f;
            line = 1;
            rule = D5;
            message =
              Printf.sprintf
                "lib module %s has no .mli interface"
                (Filename.remove_extension (Filename.basename f));
          }
      else None)
    files
