(* Tests for lib/scenario: the s-expression reader's print/parse
   round-trip, the malformed-input corpus with its pinned positioned
   diagnostics, the committed scenario files, and the static shape of
   the matrix expansion.  The subprocess-level contract (exit codes,
   the robustness-net table against its golden file) lives in
   test_cli.ml. *)

module Sexp = Basalt_scenario.Sexp
module Spec = Basalt_scenario.Spec
module Matrix = Basalt_scenario.Matrix
module Metric = Basalt_scenario.Metric
module Gen = QCheck2.Gen
module Test = QCheck2.Test

(* --- Sexp round-trip property --- *)

(* Atom contents deliberately include delimiters, quotes, backslashes
   and unprintable bytes so the property exercises the quoting and
   escaping paths, not just bare atoms. *)
let atom_char =
  Gen.frequency
    [
      (6, Gen.map Char.chr (Gen.int_range 97 122));
      (2, Gen.oneofl [ '0'; '5'; '9'; '.'; '-'; '/' ]);
      ( 2,
        Gen.oneofl
          [ '('; ')'; ' '; '"'; '\\'; '\n'; '\t'; '\r'; ';'; '\000'; '\127' ]
      );
    ]

let atom_string =
  Gen.map
    (fun cs -> String.concat "" (List.map (String.make 1) cs))
    (Gen.list_size (Gen.int_bound 8) atom_char)

(* A canonical single-line printer, the reference the parser must
   invert: an atom prints bare when reading it back yields the same
   atom, otherwise quoted with backslash escapes. *)
let atom s = { Sexp.desc = Sexp.Atom s; pos = { Sexp.line = 0; col = 0 } }
let list ts = { Sexp.desc = Sexp.List ts; pos = { Sexp.line = 0; col = 0 } }

let bare_atom s =
  s <> ""
  && String.for_all
       (fun c ->
         (not (String.contains " \t\n\r()\";\\" c))
         && Char.code c > 32 && Char.code c < 127)
       s

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 32 || Char.code c > 126 ->
          Buffer.add_string b (Printf.sprintf "\\%03d" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string (t : Sexp.t) =
  match t.desc with
  | Atom s -> if bare_atom s then s else quote s
  | List ts -> "(" ^ String.concat " " (List.map to_string ts) ^ ")"

(* Structural equality, ignoring positions. *)
let rec equal (a : Sexp.t) (b : Sexp.t) =
  match (a.desc, b.desc) with
  | Atom x, Atom y -> String.equal x y
  | List xs, List ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | Atom _, List _ | List _, Atom _ -> false

let rec sexp_gen depth =
  if depth = 0 then Gen.map atom atom_string
  else
    Gen.frequency
      [
        (3, Gen.map atom atom_string);
        ( 2,
          Gen.map list
            (Gen.list_size (Gen.int_bound 4) (sexp_gen (depth - 1))) );
      ]

let forms_gen = Gen.list_size (Gen.int_bound 4) (sexp_gen 3)

let print_forms forms = String.concat " " (List.map to_string forms)

let round_trip_prop =
  Test.make ~name:"parse (print forms) = forms" ~count:200 ~print:print_forms
    forms_gen
    (fun forms ->
      match Sexp.parse_string (print_forms forms) with
      | Error _ -> false
      | Ok parsed ->
          List.length parsed = List.length forms
          && List.for_all2 equal forms parsed)

let sexp_suite = Prop.suite "scenario sexp" [ round_trip_prop ]

(* --- malformed corpus: every diagnostic is pinned --- *)

(* Under `dune runtest` the suite runs from the build sandbox (where
   the (source_tree ../scenarios) dep lands one level up); under
   `dune exec test/test_scenario.exe` it runs from the repo root. *)
let scenarios_dir =
  if Sys.file_exists "../scenarios" then "../scenarios/" else "scenarios/"

let corpus_dir = scenarios_dir ^ "corpus/"

(* (file, position-and-message after the file-name prefix).  These are
   the parser's user interface; error-message changes must be
   deliberate. *)
let reference_needs =
  "(reference ...) needs one axis, no (pivot ...) and only histogram \
   metrics (samples|tv_distance|coeff_var|max/mean)"

let corpus =
  [
    ("unbalanced.scn", "3:1: unclosed '(' (opened at line 1, column 1)");
    ("unexpected_close.scn", "1:23: unexpected ')'");
    ( "unterminated_string.scn",
      "2:1: unterminated string (opened at line 1, column 15)" );
    ("trailing.scn", "2:1: expected a single (matrix ...) form");
    ("not_matrix.scn", "1:1: expected a (matrix ...) form");
    ("bad_number.scn", "2:12: bad number '0.x'");
    ("nan_number.scn", "2:34: bad number 'nan'");
    ("bad_prob.scn", "2:12: probability '1.5' out of [0,1]");
    ("unknown_key.scn", "2:9: unknown setting 'pace'");
    ("dup_axis.scn", "1:1: duplicate axis 'condition'");
    ("empty_axis.scn", "3:3: axis 'condition' has no entries");
    ("bad_pivot.scn", "1:1: pivot 'proto' does not name an axis");
    ( "pivot_not_last.scn",
      "1:1: pivot axis 'condition' must be the last axis declared" );
    ( "unknown_metric.scn",
      "5:12: unknown metric 'latency' \
       (time|samples_byz|delivered/sent|delivered|t99|redundancy|isolated|\
       isolated_frac|view_byz|ever_isolated|msgs/node/round|bytes/node/round|\
       wire_bytes/node/round|max_datagram|fits_MTU|adv/correct bytes|optimal|\
       model_B1|replacements|samples|tv_distance|coeff_var|max/mean|\
       prefix_share|clustering|mean_path|indeg_spread)" );
    ( "gossip_metric_no_app.scn",
      "5:12: metric 'delivered' needs (app (gossip ...))" );
    ( "no_protocol.scn",
      "1:1: no protocol bound: set (protocol ...) in (base ...) or on every \
       entry of an axis" );
    ("seeds_in_axis.scn", "3:26: (seeds ...) is only allowed in (base ...)");
    ( "rho_on_sps.scn",
      "1:1: cell protocol=sps binds (rho ...), which only basalt and brahms \
       take" );
    ( "cell_metric_labels.scn",
      "5:12: metric 'optimal' is cell-level and takes no pivot labels" );
    ( "pivotless_metric_labels.scn",
      "4:12: metric 'samples_byz' takes no labels without a (pivot ...)" );
    ("sweep_with_entries.scn", "3:21: sweep axis 'x' takes no written entries");
    ("bad_scale.scn", "3:13: unknown scale \"huge\" (quick|standard|full)");
    (* Values that loaded but then raised mid-run, or let a message
       arrive before it was sent. *)
    ("negative_churn_start.scn", "2:57: probability '-5' out of [0,1]");
    ("negative_reorder_window.scn", "2:56: reorder-window must be >= 0");
    ("negative_latency.scn", "2:45: latency must be >= 0");
    ( "inverted_uniform.scn",
      "2:49: uniform latency upper bound 0.1 is below its lower bound 0.5" );
    (* The row layouts and bindings the last module ports added. *)
    ( "rank_on_brahms.scn",
      "1:1: cell protocol=brahms binds (rank ...), which only basalt takes" );
    ("reference_pivoted.scn", "4:3: " ^ reference_needs);
    ("reference_two_axes.scn", "4:3: " ^ reference_needs);
    ("reference_metric.scn", "3:3: " ^ reference_needs);
    ("fit_without_rows.scn", "5:3: (fit ...) needs (rows time)");
    ( "rows_time_metric.scn",
      "5:23: metric 'delivered/sent' has no per-point value for (rows time)" );
    ( "rows_time_fits_mtu.scn",
      "5:12: metric 'fits_MTU' has no per-point value for (rows time)" );
    (* Two metric columns under one header, from a repeated metric or
       a repeated label; the second occurrence is the one named. *)
    ("dup_metric_column.scn", "5:25: duplicate metric column 'x_view_byz'");
    ("dup_metric_label.scn", "5:26: duplicate metric column 'y_view_byz'");
  ]

let corpus_diagnostics () =
  List.iter
    (fun (file, expected) ->
      let path = corpus_dir ^ file in
      match Spec.load path with
      | Ok _ -> Alcotest.failf "%s: expected a diagnostic, got Ok" file
      | Error (`Unreadable msg) ->
          Alcotest.failf "%s: expected `Invalid, got `Unreadable %s" file msg
      | Error (`Invalid msg) ->
          Alcotest.(check string) file (path ^ ":" ^ expected) msg)
    corpus

(* The corpus list and the directory must cover each other: a new
   corpus file without a pinned message (or vice versa) is a test
   hole. *)
let corpus_is_exhaustive () =
  let on_disk =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".scn")
    |> List.sort compare
  in
  let pinned = List.map fst corpus |> List.sort compare in
  Alcotest.(check (list string)) "corpus files all pinned" pinned on_disk

let missing_file_is_unreadable () =
  match Spec.load (corpus_dir ^ "no_such_file.scn") with
  | Error (`Unreadable msg) ->
      Alcotest.(check bool) "names the path" true
        (let needle = "no_such_file.scn" in
         let nl = String.length needle and hl = String.length msg in
         let rec go i =
           i + nl <= hl && (String.sub msg i nl = needle || go (i + 1))
         in
         go 0)
  | Ok _ | Error (`Invalid _) -> Alcotest.fail "expected `Unreadable"

(* --- committed scenario files --- *)

let load_ok path =
  match Spec.load path with
  | Ok spec -> spec
  | Error (`Unreadable msg) | Error (`Invalid msg) -> Alcotest.fail msg

let committed_files_load () =
  let spec = load_ok (scenarios_dir ^ "robustness_net.scn") in
  Alcotest.(check string) "name" "robustness-net" spec.Spec.name;
  Alcotest.(check string) "slug" "robustness_net" (Spec.slug spec);
  Alcotest.(check int) "two axes" 2 (List.length spec.Spec.axes);
  Alcotest.(check (option string)) "pivot is protocol" (Some "protocol")
    (Option.map (fun ax -> ax.Spec.axis_name) (Spec.pivot spec));
  Alcotest.(check bool) "no app" true (spec.Spec.app = None);
  let spec = load_ok (scenarios_dir ^ "broadcast.scn") in
  Alcotest.(check string) "name" "broadcast" spec.Spec.name;
  Alcotest.(check int) "three axes" 3 (List.length spec.Spec.axes);
  Alcotest.(check bool) "mounts gossip" true (spec.Spec.app <> None);
  let spec = load_ok (scenarios_dir ^ "smoke.scn") in
  Alcotest.(check string) "name" "smoke" spec.Spec.name;
  Alcotest.(check (option (list int))) "explicit seeds" (Some [ 1; 2 ])
    spec.Spec.seeds

(* Every file in scenarios/, found by listing the directory, so a new
   or renamed file cannot skip validation. *)
let every_committed_file_loads () =
  let files =
    Sys.readdir scenarios_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".scn")
    |> List.sort compare
  in
  Alcotest.(check bool) "found the committed files" true
    (List.length files >= 11);
  List.iter (fun f -> ignore (load_ok (scenarios_dir ^ f))) files

(* --- static expansion shape (no simulation runs) --- *)

let smoke_expansion () =
  let spec = load_ok (scenarios_dir ^ "smoke.scn") in
  let tasks = Matrix.tasks ~scale:Basalt_experiments.Scale.Quick spec in
  (* 2 conditions x 2 protocols x 2 seeds, seeds innermost. *)
  Alcotest.(check int) "task count" 8 (List.length tasks);
  let labels =
    List.map
      (fun t ->
        String.concat "/" (List.map snd t.Matrix.labels)
        ^ "#"
        ^ string_of_int t.Matrix.scenario.Basalt_sim.Scenario.seed)
      tasks
  in
  Alcotest.(check (list string)) "expansion order"
    [
      "clean/basalt#1";
      "clean/basalt#2";
      "clean/brahms#1";
      "clean/brahms#2";
      "lossy/basalt#1";
      "lossy/basalt#2";
      "lossy/brahms#1";
      "lossy/brahms#2";
    ]
    labels;
  (* Coordinates carry axis names in file order. *)
  let t0 = List.hd tasks in
  Alcotest.(check (list (pair string string)))
    "axis-name coordinates"
    [ ("condition", "clean"); ("protocol", "basalt") ]
    t0.Matrix.labels;
  (* Base bindings override the scale preset. *)
  Alcotest.(check int) "explicit n wins" 80
    t0.Matrix.scenario.Basalt_sim.Scenario.n;
  (* Trace tags come from the trace-key attributes, as strings here. *)
  Alcotest.(check bool) "trace tags" true
    (t0.Matrix.trace_extra
    = [ ("cond", Basalt_obs.Obs.Str "clean"); ("proto", Basalt_obs.Obs.Str "basalt") ])

let broadcast_expansion () =
  let spec = load_ok (scenarios_dir ^ "broadcast.scn") in
  let tasks = Matrix.tasks ~scale:Basalt_experiments.Scale.Quick spec in
  let seeds = List.length (Basalt_experiments.Scale.seeds Basalt_experiments.Scale.Quick) in
  (* 3 conditions x 2 forces x 4 protocols x preset seeds. *)
  Alcotest.(check int) "task count" (3 * 2 * 4 * seeds) (List.length tasks);
  (* The force axis is display-float: traces tag it as a float. *)
  let t0 = List.hd tasks in
  Alcotest.(check bool) "float trace tag" true
    (List.assoc "force" t0.Matrix.trace_extra = Basalt_obs.Obs.Float 1.0)

(* The per-cell scenarios resolve fault windows against the cell's own
   step count, as run fractions. *)
let fraction_windows_resolve () =
  let spec = load_ok (scenarios_dir ^ "robustness_net.scn") in
  let tasks = Matrix.tasks ~scale:Basalt_experiments.Scale.Quick spec in
  let partition_task =
    List.find
      (fun t -> List.assoc "condition" t.Matrix.labels = "partition")
      tasks
  in
  let sc = partition_task.Matrix.scenario in
  let steps = sc.Basalt_sim.Scenario.steps in
  match sc.Basalt_sim.Scenario.fault with
  | None -> Alcotest.fail "partition cell has no fault plan"
  | Some fault -> (
      match fault.Basalt_engine.Fault.partitions with
      | [ p ] ->
          Alcotest.(check (float 0.0)) "from = steps/4"
            (0.25 *. steps) p.Basalt_engine.Fault.from_time;
          Alcotest.(check (float 0.0)) "until = steps/2"
            (0.5 *. steps) p.Basalt_engine.Fault.until_time
      | ps ->
          Alcotest.failf "expected one partition, got %d" (List.length ps))

(* Without (pivot ...) every axis is a row column and each cell one
   row, its metrics in unprefixed columns. *)
let pivotless_layout () =
  let spec =
    match
      Spec.of_string
        "(matrix (name layout) (base (n 40) (v 8) (steps 4)) \
         (axis loss (none (loss none)) (lossy (loss (bernoulli 0.1)))) \
         (axis protocol (basalt (protocol basalt)) (sps (protocol sps))) \
         (metrics (view_byz) (max_datagram) (\"adv/correct bytes\")))"
    with
    | Ok spec -> spec
    | Error msg -> Alcotest.fail msg
  in
  let rows = Matrix.run ~scale:Basalt_experiments.Scale.Quick spec in
  let nrows, cols = Matrix.columns spec rows in
  Alcotest.(check int) "one row per cell" 4 nrows;
  Alcotest.(check (list string))
    "axis names, then metric keywords"
    [ "loss"; "protocol"; "view_byz"; "max_datagram"; "adv/correct bytes" ]
    (List.map (fun c -> c.Basalt_sim.Report.header) cols);
  Alcotest.(check (list string))
    "cells in expansion order"
    [ "none/basalt"; "none/sps"; "lossy/basalt"; "lossy/sps" ]
    (List.map
       (fun r -> String.concat "/" (List.map snd r.Matrix.row_labels))
       rows)

(* A spec's line count, headers, rendered column by header and typed
   metric column by header. *)
let layout_of src =
  let spec =
    match Spec.of_string src with Ok spec -> spec | Error msg -> Alcotest.fail msg
  in
  let rows = Matrix.run ~scale:Basalt_experiments.Scale.Quick spec in
  let nrows, cols = Matrix.columns spec rows in
  let value = Matrix.lookup spec rows in
  ( nrows,
    List.map (fun c -> c.Basalt_sim.Report.header) cols,
    (fun header ->
      let c = List.find (fun c -> c.Basalt_sim.Report.header = header) cols in
      List.init nrows c.Basalt_sim.Report.cell),
    fun header -> List.init nrows (value header) )

(* (rows time): one line per measurement point, a time column after
   the axes, and metric columns in the order their labels list them. *)
let time_rows_layout () =
  let nrows, headers, column, values =
    layout_of
      "(matrix (name layout) (base (n 40) (v 8) (steps 4) (measure-every 2)) \
       (axis protocol (basalt (protocol basalt)) (brahms (protocol brahms))) \
       (pivot protocol) (rows time) \
       (metrics (view_byz brahms) (clustering basalt) (view_byz basalt)))"
  in
  Alcotest.(check int) "one line per measurement point" 2 nrows;
  Alcotest.(check (list string))
    "time, then label-ordered metric columns"
    [ "time"; "brahms_view_byz"; "basalt_clustering"; "basalt_view_byz" ]
    headers;
  Alcotest.(check (list string))
    "measurement times" [ "2.0000"; "4.0000" ] (column "time");
  Alcotest.(check bool) "graph metrics derived on" true
    (List.for_all
       (function Metric.Float _ -> true | _ -> false)
       (values "basalt_clustering"))

(* (reference LABEL): one extra line under the axis column, drawing as
   many samples as the first row. *)
let reference_layout () =
  let nrows, headers, column, values =
    layout_of
      "(matrix (name layout) (base (n 40) (v 8) (steps 4) (seeds 42)) \
       (axis sampler (basalt (protocol basalt)) (classic (protocol classic))) \
       (reference ideal) (metrics (samples) (tv_distance)))"
  in
  Alcotest.(check int) "cells plus the reference" 3 nrows;
  Alcotest.(check (list string))
    "axis, then histogram metrics"
    [ "sampler"; "samples"; "tv_distance" ]
    headers;
  Alcotest.(check (list string))
    "reference row last" [ "basalt"; "classic"; "ideal" ] (column "sampler");
  let samples = values "samples" in
  Alcotest.(check bool) "as many samples as the first row" true
    (List.nth samples 0 = List.nth samples 2)

(* Every entry of the metric table, evaluated once on a toy spec that
   mounts the gossip app: the value's kind, and its rendering is the
   table cell. *)
let metric_table_values () =
  let metrics =
    List.map (fun (m : Metric.t) -> Printf.sprintf "(%S)" m.keyword) Metric.all
  in
  let nrows, _, column, values =
    layout_of
      ("(matrix (name table) (base (n 40) (v 8) (steps 4) (seeds 42)) \
        (axis protocol (basalt (protocol basalt))) (app (gossip)) (metrics "
      ^ String.concat " " metrics ^ "))")
  in
  Alcotest.(check int) "one line" 1 nrows;
  List.iter
    (fun (m : Metric.t) ->
      let v = List.hd (values m.keyword) in
      let kind =
        match v with
        | Metric.Float _ -> "float"
        | Metric.Int _ -> "int"
        | Metric.Bool _ -> "bool"
        | Metric.Missing reason -> "missing " ^ reason
      in
      let kinds =
        match m.keyword with
        | "fits_MTU" | "ever_isolated" -> [ "bool" ]
        | "max_datagram" | "samples" | "replacements" -> [ "int" ]
        | "time" -> [ "float"; "missing no-convergence" ]
        | "t99" -> [ "float"; "missing never" ]
        | _ -> [ "float" ]
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s is %s" m.keyword kind)
        true (List.mem kind kinds);
      Alcotest.(check string)
        (m.keyword ^ " renders as its cell")
        (List.hd (column m.keyword))
        (Metric.render v))
    Metric.all

(* A cell × seed batch fanned out over a 4-domain pool is bit-for-bit
   (Int64 float bits) identical to the sequential run, cell by cell. *)
let run_tasks_determinism () =
  let spec =
    match
      Spec.of_string
        "(matrix (name det) \
         (base (protocol basalt) (n 60) (v 10) (force 2) (steps 30) \
         (seeds 1 2)) \
         (axis f (clean (f 0.0)) (base (f 0.1)) (heavy (f 0.2))) \
         (metrics (view_byz) (samples_byz) (isolated)))"
    with
    | Ok spec -> spec
    | Error msg -> Alcotest.fail msg
  in
  let scale = Basalt_experiments.Scale.Quick in
  let values ?pool () =
    let rows = Matrix.run ~scale ?pool spec in
    let lookup = Matrix.lookup spec rows in
    List.concat_map
      (fun header ->
        List.init (List.length rows) (fun i ->
            match lookup header i with
            | Metric.Float x -> Int64.bits_of_float x
            | v ->
                Alcotest.failf "%s is %s, not a float" header
                  (Metric.render v)))
      [ "view_byz"; "samples_byz"; "isolated" ]
  in
  let sequential = values () in
  Alcotest.(check int) "three metrics of three cells" 9 (List.length sequential);
  Basalt_parallel.Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check (list int64))
        "j=1 vs j=4 bits" sequential (values ~pool ()))

(* model_B1 is Eq. 16's stable root at the cell's n, f, view size, τ
   and ρ, read from the resolved scenario alone (no run needed), and
   "none" when the attack has no steady state. *)
let model_b1_metric () =
  let model_b1 = Option.get (Metric.find "model_B1") in
  let eval (t : Matrix.task) =
    let group =
      { Metric.g_scenario = t.Matrix.scenario; g_prefixes = None; g_runs = [] }
    in
    Metric.eval model_b1 { Metric.within = 0.0; row = [ group ]; group }
  in
  let spec = load_ok (scenarios_dir ^ "theory_model.scn") in
  let v60 =
    List.find
      (fun t -> List.assoc "v" t.Matrix.labels = "60")
      (Matrix.tasks ~scale:Basalt_experiments.Scale.Quick spec)
  in
  let expected =
    Basalt_analysis.Model.(steady_state (env ~n:300 ~f:0.1 ~v:60 ()))
  in
  (match (eval v60, expected) with
  | Metric.Float b1, Some want ->
      Alcotest.(check int64)
        "v = 60 is Model.steady_state" (Int64.bits_of_float want)
        (Int64.bits_of_float b1)
  | _ -> Alcotest.fail "v = 60 at quick scale has a stable root");
  (* (1 - f) < 2 f n / v^2: no real root at n = 300, f = 0.1, v = 8. *)
  let spec =
    match
      Spec.of_string
        "(matrix (name unstable) (base (protocol basalt) (n 300) (v 8) (f 0.1)) \
         (axis run (only)) (metrics (model_B1)))"
    with
    | Ok spec -> spec
    | Error msg -> Alcotest.fail msg
  in
  let t = List.hd (Matrix.tasks ~scale:Basalt_experiments.Scale.Quick spec) in
  Alcotest.(check string)
    "no stable root" "none"
    (match eval t with Metric.Missing reason -> reason | v -> Metric.render v);
  (* A (rho 2) cell is the ρ = 2 root, which differs from the ρ = 1
     one. *)
  let root rho =
    Basalt_analysis.Model.(steady_state (env ~n:300 ~f:0.1 ~v:60 ~rho ()))
  in
  Alcotest.(check bool) "rho moves the root" false (root 2.0 = root 1.0);
  List.iter
    (fun protocol ->
      let spec =
        match
          Spec.of_string
            (Printf.sprintf
               "(matrix (name rho2) (base (protocol %s) (n 300) (v 60) \
                (f 0.1) (rho 2)) (axis run (only)) (metrics (model_B1)))"
               protocol)
        with
        | Ok spec -> spec
        | Error msg -> Alcotest.fail msg
      in
      let t =
        List.hd (Matrix.tasks ~scale:Basalt_experiments.Scale.Quick spec)
      in
      match (eval t, root 2.0) with
      | Metric.Float b1, Some want ->
          Alcotest.(check int64)
            (protocol ^ " at rho 2 is Model.steady_state ~rho:2")
            (Int64.bits_of_float want) (Int64.bits_of_float b1)
      | _ -> Alcotest.fail "v = 60 at rho 2 has a stable root")
    [ "basalt"; "brahms" ]

(* --- ported experiments: what each cell resolves to --- *)

module Scale = Basalt_experiments.Scale
module Scenario = Basalt_sim.Scenario
module Link = Basalt_engine.Link

(* One resolved run, rendered so a mismatch names the field. *)
type run = {
  proto : string;
  n : int;
  v : int;
  steps : float;
  f : float;
  force : float;
  rho : float;
  strategy : string;
  loss : Link.Loss.t;
  latency : Link.Latency.t;
  churn : (float * float) option;  (** (rate, start) *)
  seed : int;
  measure_every : float;
  graph : bool;  (** Graph metrics on. *)
  backend : string;  (** Basalt's rank backend; "-" on other protocols. *)
}

let show r =
  Format.asprintf
    "%s n=%d v=%d steps=%.17g f=%.17g F=%.17g rho=%.17g strategy=%s \
     loss=%a latency=%a churn=%s seed=%d every=%g graph=%b rank=%s"
    r.proto r.n r.v r.steps r.f r.force r.rho r.strategy Link.Loss.pp r.loss
    Link.Latency.pp r.latency
    (match r.churn with
    | None -> "none"
    | Some (rate, start) -> Printf.sprintf "%.17g@%.17g" rate start)
    r.seed r.measure_every r.graph r.backend

let show_task (t : Matrix.task) =
  let s = t.Matrix.scenario in
  show
    {
      proto = Scenario.protocol_name s;
      n = s.Scenario.n;
      v = Scenario.view_size s;
      steps = s.Scenario.steps;
      f = s.Scenario.f;
      force = s.Scenario.force;
      rho =
        (match s.Scenario.protocol with
        | Scenario.Basalt c -> c.Basalt_core.Config.rho
        | Scenario.Brahms c -> c.Basalt_brahms.Brahms_config.rho
        | Scenario.Sps _ | Scenario.Classic _ -> Float.nan);
      strategy =
        (match s.Scenario.strategy with
        | Basalt_adversary.Adversary.Flood -> "flood"
        | Basalt_adversary.Adversary.Silent -> "silent"
        | Basalt_adversary.Adversary.Eclipse _ -> "eclipse");
      loss = s.Scenario.loss;
      latency = s.Scenario.latency;
      churn =
        Option.map
          (fun c -> (c.Basalt_sim.Churn.rate, c.Basalt_sim.Churn.start))
          s.Scenario.churn;
      seed = s.Scenario.seed;
      measure_every = s.Scenario.measure_every;
      graph = s.Scenario.graph_metrics;
      backend =
        (match s.Scenario.protocol with
        | Scenario.Basalt c -> (
            match c.Basalt_core.Config.backend with
            | Basalt_hashing.Rank.Cheap -> "cheap"
            | Basalt_hashing.Rank.Prefix_diverse _ -> "prefix-diverse"
            | _ -> "other")
        | Scenario.Brahms _ | Scenario.Sps _ | Scenario.Classic _ -> "-");
    }

(* The runs the hand-written fig2, fig3, churn_exp and robustness
   modules made at [scale], in their order (x, then basalt before
   brahms, then seeds): the base point f = 0.1, F = 10, rho = 1 at the
   preset's n, v and steps, with one parameter varied.  Then the runs of
   the Sps_failure, Cost and Uniformity modules, one per protocol in
   their order: f = 0.3 against a silent adversary at a fixed size, and
   the base point at seed 42.  Then the Sybil module's vanilla and
   prefix-diverse Basalt runs over its four (n, f) networks, the
   Theory module's model-vs-Monte-Carlo runs (Basalt at F = 50 over the
   preset's view sizes), and the Fig4 module's time series at its own
   sizes. *)
let expected scale =
  let base =
    {
      proto = "basalt";
      n = Scale.n scale;
      v = Scale.v scale;
      steps = Scale.steps scale;
      f = 0.1;
      force = 10.0;
      rho = 1.0;
      strategy = "flood";
      loss = Link.Loss.None;
      latency = Link.Latency.Zero;
      churn = None;
      seed = 0;
      measure_every = 1.0;
      graph = false;
      backend = "cheap";
    }
  in
  let with_proto r proto =
    { r with proto; backend = (if proto = "basalt" then r.backend else "-") }
  in
  let both_protocols r =
    List.concat_map
      (fun proto ->
        List.map
          (fun seed -> show { (with_proto r proto) with seed })
          (Scale.seeds scale))
      [ "basalt"; "brahms" ]
  in
  let over xs mk = List.concat_map (fun x -> both_protocols (mk x)) xs in
  let all_protocols order r =
    List.map
      (fun proto ->
        let rho = if proto = "basalt" || proto = "brahms" then 1.0 else nan in
        { (with_proto r proto) with rho })
      order
  in
  let fig3 =
    match scale with
    | Scale.Quick -> { base with n = 300; v = 40; steps = 100.0 }
    | Scale.Standard | Scale.Full ->
        { base with n = 1000; v = 100; steps = 300.0 }
  in
  [
    ( "fig2a",
      over (Scale.byzantine_fractions scale) (fun f -> { base with f }) );
    ("fig2b", over (Scale.forces scale) (fun force -> { base with force }));
    ("fig2c", over (Scale.sampling_rates scale) (fun rho -> { base with rho }));
    ("fig2d", over (Scale.view_sizes scale) (fun v -> { base with v }));
    ("fig3", over (Scale.byzantine_fractions scale) (fun f -> { fig3 with f }));
    ( "churn",
      over [ 0.0; 0.005; 0.01; 0.02; 0.05 ] (fun rate ->
          {
            base with
            churn =
              (if rate = 0.0 then None
               else Some (rate, Scale.steps scale /. 4.0));
          }) );
    ( "robustness",
      over [ 0.0; 0.1; 0.2; 0.4 ] (fun p ->
          {
            base with
            loss = (if p = 0.0 then Link.Loss.None else Link.Loss.Bernoulli p);
          }) );
    ( "robustness_latency",
      List.concat_map
        (fun j ->
          List.map
            (fun seed ->
              show
                {
                  base with
                  seed;
                  latency =
                    (if j = 0.0 then Link.Latency.Zero
                     else Link.Latency.Uniform { lo = 0.0; hi = j });
                })
            (Scale.seeds scale))
        [ 0.0; 0.25; 0.5; 1.0 ] );
    ( "sps_failure",
      let n, v, steps =
        match scale with
        | Scale.Quick -> (300, 40, 100.0)
        | Scale.Standard | Scale.Full -> (1000, 100, 200.0)
      in
      List.concat_map
        (fun r ->
          List.map (fun seed -> show { r with seed }) (Scale.seeds scale))
        (all_protocols
           [ "sps"; "basalt"; "brahms"; "classic" ]
           { base with n; v; steps; f = 0.3; force = 0.0; strategy = "silent" })
    );
    ( "cost",
      List.map
        (fun r -> show { r with seed = 42 })
        (all_protocols [ "basalt"; "brahms"; "sps"; "classic" ] base) );
    ( "uniformity",
      List.map
        (fun r -> show { r with seed = 42 })
        (all_protocols [ "basalt"; "brahms"; "classic" ] base) );
    ( "sybil",
      let honest, ns =
        match scale with
        | Scale.Quick -> (225, [ 253; 309; 450; 675 ])
        | Scale.Standard -> (750, [ 843; 1031; 1500; 2250 ])
        | Scale.Full -> (7500, [ 8437; 10312; 15000; 22500 ])
      in
      List.concat_map
        (fun n ->
          let f = float_of_int (n - honest) /. float_of_int n in
          List.map
            (fun backend -> show { base with n; f; backend; seed = 1 })
            [ "cheap"; "prefix-diverse" ])
        ns );
    ( "theory_model",
      List.concat_map
        (fun v ->
          List.map
            (fun seed -> show { base with v; force = 50.0; seed })
            (Scale.seeds scale))
        (Scale.view_sizes scale) );
    ( "fig4",
      let n, v, steps, measure_every =
        match scale with
        | Scale.Quick -> (300, 40, 80.0, 10.0)
        | Scale.Standard -> (1000, 100, 150.0, 5.0)
        | Scale.Full -> (10_000, 160, 200.0, 5.0)
      in
      List.map
        (fun proto ->
          show
            {
              (with_proto base proto) with
              n;
              v;
              steps;
              measure_every;
              force = 1.0;
              rho = 0.5;
              seed = 42;
              graph = true;
            })
        [ "basalt"; "brahms" ] );
  ]

let ported_specs_resolve () =
  List.iter
    (fun scale ->
      List.iter
        (fun (name, want) ->
          let spec = load_ok (scenarios_dir ^ name ^ ".scn") in
          Alcotest.(check (list string))
            (Printf.sprintf "%s at %s" name (Scale.to_string scale))
            want
            (List.map show_task (Matrix.tasks ~scale spec)))
        (expected scale))
    [ Scale.Quick; Scale.Standard; Scale.Full ]

let () =
  let name, cases = sexp_suite in
  Alcotest.run "scenario"
    [
      (name, cases);
      ( "spec",
        [
          Alcotest.test_case "corpus diagnostics" `Quick corpus_diagnostics;
          Alcotest.test_case "corpus is exhaustive" `Quick corpus_is_exhaustive;
          Alcotest.test_case "missing file is unreadable" `Quick
            missing_file_is_unreadable;
          Alcotest.test_case "committed files load" `Quick committed_files_load;
          Alcotest.test_case "every committed file loads" `Quick
            every_committed_file_loads;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "smoke expansion" `Quick smoke_expansion;
          Alcotest.test_case "broadcast expansion" `Quick broadcast_expansion;
          Alcotest.test_case "fraction windows resolve" `Quick
            fraction_windows_resolve;
          Alcotest.test_case "ported specs resolve" `Quick ported_specs_resolve;
          Alcotest.test_case "pivot-less layout" `Quick pivotless_layout;
          Alcotest.test_case "(rows time) layout" `Quick time_rows_layout;
          Alcotest.test_case "(reference ...) layout" `Quick reference_layout;
          Alcotest.test_case "metric table values" `Quick metric_table_values;
          Alcotest.test_case "model_B1 metric" `Quick model_b1_metric;
          Alcotest.test_case "run_tasks determinism j=1 vs j=4" `Quick
            run_tasks_determinism;
        ] );
    ]
