(* The typed scenario-matrix specification (DESIGN.md §12): parsing of
   the (matrix ...) grammar out of Sexp trees plus all static
   validation, so Matrix can expand and run a spec without further
   error handling.  Every diagnostic carries the source position of the
   offending form and renders as file:line:col. *)

module Link = Basalt_engine.Link
module Churn = Basalt_sim.Churn
module Adversary = Basalt_adversary.Adversary
module Gossip_app = Basalt_experiments.Gossip_app
module Scale = Basalt_experiments.Scale
module Scenario = Basalt_sim.Scenario

type link_fault = {
  lf_loss : Link.Loss.t option;
  lf_dup : float option;
  lf_reorder : float option;
  lf_reorder_window : float option;
}

type fault_form =
  | Link_fault of link_fault
  | Partition_fault of { from_frac : float; until_frac : float }
  | Outage_fault of { node : int; from_frac : float; until_frac : float }

type churn = {
  churn_rate : float;
  churn_start_frac : float option;
  churn_style : Churn.style option;
}

type rank =
  | Cheap
  | Prefix_diverse of { honest_prefixes : int; attacker_prefixes : int }

type settings = {
  n : int option;
  v : int option;
  f : float option;
  force : float option;
  rho : float option;
  steps : float option;
  protocol : string option;
  strategy : Adversary.strategy option;
  latency : Link.Latency.t option;
  loss : Link.Loss.t option;
  faults : fault_form list option;
  churn : churn option;
  measure_every : float option;
  rank : rank option;
}

let empty_settings =
  {
    n = None;
    v = None;
    f = None;
    force = None;
    rho = None;
    steps = None;
    protocol = None;
    strategy = None;
    latency = None;
    loss = None;
    faults = None;
    churn = None;
    measure_every = None;
    rank = None;
  }

(* Entry bindings override base bindings field-wise; a fault plan or
   churn model replaces the inherited one wholesale. *)
let merge base over =
  let pick o b = match o with Some _ -> o | None -> b in
  {
    n = pick over.n base.n;
    v = pick over.v base.v;
    f = pick over.f base.f;
    force = pick over.force base.force;
    rho = pick over.rho base.rho;
    steps = pick over.steps base.steps;
    protocol = pick over.protocol base.protocol;
    strategy = pick over.strategy base.strategy;
    latency = pick over.latency base.latency;
    loss = pick over.loss base.loss;
    faults = pick over.faults base.faults;
    churn = pick over.churn base.churn;
    measure_every = pick over.measure_every base.measure_every;
    rank = pick over.rank base.rank;
  }

type entry = { label : string; bindings : settings }
type sweep = Sweep_f | Sweep_force | Sweep_rho | Sweep_v | Sweep_sybils

type axis = {
  axis_name : string;
  trace_key : string option;
  display_float : bool;
  entries : entry list;
  sweep : sweep option;
}

let entries scale ax =
  let entry label bindings = { label; bindings } in
  let floats xs bind =
    List.map (fun x -> entry (Printf.sprintf "%g" x) (bind x)) xs
  in
  match ax.sweep with
  | None -> ax.entries
  | Some Sweep_f ->
      floats (Scale.byzantine_fractions scale) (fun f ->
          { empty_settings with f = Some f })
  | Some Sweep_force ->
      floats (Scale.forces scale) (fun force ->
          { empty_settings with force = Some force })
  | Some Sweep_rho ->
      floats (Scale.sampling_rates scale) (fun rho ->
          { empty_settings with rho = Some rho })
  | Some Sweep_v ->
      List.map
        (fun v -> entry (string_of_int v) { empty_settings with v = Some v })
        (Scale.view_sizes scale)
  | Some Sweep_sybils ->
      List.map
        (fun (n, f) ->
          entry (Printf.sprintf "%g" f)
            { empty_settings with n = Some n; f = Some f })
        (Scale.sybil_networks scale)

type t = {
  name : string;
  title : string option;
  doc : string option;
  base : settings;
  at_scale : (Scale.t * settings) list;
  seeds : int list option;
  axes : axis list;
  pivoted : bool;
  within : float;
  app : Gossip_app.params option;
  metrics : (Metric.t * string list) list;
  time_rows : bool;
  reference : string option;
  fit : Metric.t option;
  caption : string list;
}

let pivot spec =
  if spec.pivoted then Some (List.nth spec.axes (List.length spec.axes - 1))
  else None

(* The header rule: a metric item's columns as (header, (metric, pivot
   label)).  A cell- or row-level metric, or any metric without a pivot,
   is one unprefixed column read from the first pivot label (a
   pivot-less cell's one group is keyed ""); otherwise each listed
   label, or every pivot label when none is listed, gives a
   <label>_<keyword> column. *)
let item_columns ~pivoted pivot_labels ((m : Metric.t), labels) =
  match (labels, pivot_labels) with
  | _, first :: _ when m.level <> Metric.Run || not pivoted ->
      [ (m.keyword, (m, first)) ]
  | [], ls | ls, _ -> List.map (fun l -> (l ^ "_" ^ m.keyword, (m, l))) ls

let columns spec pivot_labels =
  List.concat_map (item_columns ~pivoted:spec.pivoted pivot_labels) spec.metrics

let needs spec need =
  List.exists
    (fun (m : Metric.t) -> List.mem need m.needs)
    (Option.to_list spec.fit @ List.map fst spec.metrics)

(* Cross product in file order, rightmost (pivot) axis innermost. *)
let cells scale spec =
  let start =
    match List.assoc_opt scale spec.at_scale with
    | Some over -> merge spec.base over
    | None -> spec.base
  in
  let rec go axes labels settings =
    match axes with
    | [] -> [ (List.rev labels, settings) ]
    | ax :: rest ->
        List.concat_map
          (fun e ->
            go rest
              ((ax.axis_name, e.label) :: labels)
              (merge settings e.bindings))
          (entries scale ax)
  in
  go spec.axes [] start

let slug spec =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c | _ -> '_')
    spec.name

(* ------------------------------------------------------------------ *)
(* Parsing helpers                                                     *)

exception Fail of Sexp.pos * string

let fail pos fmt = Printf.ksprintf (fun msg -> raise (Fail (pos, msg))) fmt

let atom_of (s : Sexp.t) ~what =
  match s.desc with
  | Atom a -> a
  | List _ -> fail s.pos "expected %s, got a list" what

(* Every numeric form parses here, so refusing [nan] and [inf] once
   keeps them out of each range check below, none of which a NaN
   fails. *)
let float_of (s : Sexp.t) =
  let a = atom_of s ~what:"a number" in
  match float_of_string_opt a with
  | Some x when Float.is_finite x -> x
  | Some _ | None -> fail s.pos "bad number '%s'" a

let int_of (s : Sexp.t) =
  let a = atom_of s ~what:"an integer" in
  match int_of_string_opt a with
  | Some x -> x
  | None -> fail s.pos "bad integer '%s'" a

let prob_of (s : Sexp.t) =
  let x = float_of s in
  if x < 0.0 || x > 1.0 then
    fail s.pos "probability '%s' out of [0,1]" (atom_of s ~what:"a number");
  x

(* Negative delays would deliver a message before it was sent (the
   engine clamps the clock), and a negative reorder window makes the
   engine raise mid-run. *)
let non_negative (s : Sexp.t) ~what =
  let x = float_of s in
  if x < 0.0 then fail s.pos "%s must be >= 0" what;
  x

(* A form is a list whose head is an atom keyword. *)
let form_of (s : Sexp.t) =
  match s.desc with
  | List ({ desc = Atom head; _ } :: args) -> (head, args, s.pos)
  | List _ -> fail s.pos "expected a (keyword ...) form"
  | Atom a -> fail s.pos "expected a (keyword ...) form, got atom '%s'" a

let arity pos head want (args : Sexp.t list) =
  if List.length args <> want then
    fail pos "(%s ...) takes %d argument%s" head want
      (if want = 1 then "" else "s")

(* The argument of a one-argument [(head X)] form. *)
let single pos head args =
  arity pos head 1 args;
  List.hd args

(* ------------------------------------------------------------------ *)
(* Value parsers                                                       *)

let latency_of (s : Sexp.t) =
  match s.desc with
  | Atom "zero" -> Link.Latency.Zero
  | Atom a -> fail s.pos "unknown latency model '%s' (zero|uniform)" a
  | List _ -> (
      let head, args, pos = form_of s in
      match head with
      | "uniform" ->
          arity pos head 2 args;
          let lo = non_negative (List.nth args 0) ~what:"latency" in
          let hi_s = List.nth args 1 in
          let hi = float_of hi_s in
          if hi < lo then
            fail hi_s.pos
              "uniform latency upper bound %g is below its lower bound %g" hi
              lo;
          Link.Latency.Uniform { lo; hi }
      | _ -> fail pos "unknown latency model '%s' (zero|uniform)" head)

let loss_of (s : Sexp.t) =
  match s.desc with
  | Atom "none" -> Link.Loss.None
  | Atom a -> fail s.pos "unknown loss model '%s' (none|bernoulli|gilbert)" a
  | List _ -> (
      let head, args, pos = form_of s in
      match head with
      | "bernoulli" -> Link.Loss.Bernoulli (prob_of (single pos head args))
      | "gilbert" ->
          arity pos head 4 args;
          let p = List.map prob_of args in
          Link.Loss.Gilbert_elliott
            {
              p_gb = List.nth p 0;
              p_bg = List.nth p 1;
              good = List.nth p 2;
              bad = List.nth p 3;
            }
      | _ -> fail pos "unknown loss model '%s' (none|bernoulli|gilbert)" head)

let protocol_of (s : Sexp.t) =
  let a = atom_of s ~what:"a protocol name" in
  if List.mem a Scenario.protocol_names then a
  else
    fail s.pos "unknown protocol '%s' (%s)" a
      (String.concat "|" Scenario.protocol_names)

let strategy_of (s : Sexp.t) =
  match atom_of s ~what:"a strategy" with
  | "flood" -> Adversary.Flood
  | "silent" -> Adversary.Silent
  | a -> fail s.pos "unknown strategy '%s' (flood|silent)" a

(* Fractions of the run used by partition/outage windows, so scenario
   files stay valid at every scale. *)
let window_of pos forms =
  let from_frac = ref None and until_frac = ref None in
  let leftover =
    List.filter
      (fun item ->
        let head, args, hpos = form_of item in
        match head with
        | "from-frac" ->
            from_frac := Some (prob_of (single hpos head args));
            false
        | "until-frac" ->
            until_frac := Some (prob_of (single hpos head args));
            false
        | _ -> true)
      forms
  in
  match (!from_frac, !until_frac) with
  | Some a, Some b ->
      if a >= b then fail pos "empty window: from-frac %g >= until-frac %g" a b;
      (a, b, leftover)
  | _ -> fail pos "a fault window needs (from-frac F) and (until-frac F)"

let fault_form_of (s : Sexp.t) =
  let head, args, pos = form_of s in
  match head with
  | "link" ->
      let lf_loss = ref None
      and lf_dup = ref None
      and lf_reorder = ref None
      and lf_reorder_window = ref None in
      List.iter
        (fun item ->
          let key, kargs, kpos = form_of item in
          match key with
          | "loss" -> lf_loss := Some (loss_of (single kpos key kargs))
          | "dup" -> lf_dup := Some (prob_of (single kpos key kargs))
          | "reorder" -> lf_reorder := Some (prob_of (single kpos key kargs))
          | "reorder-window" ->
              lf_reorder_window :=
                Some
                  (non_negative (single kpos key kargs) ~what:"reorder-window")
          | _ ->
              fail kpos
                "unknown link-fault key '%s' \
                 (loss|dup|reorder|reorder-window)"
                key)
        args;
      Link_fault
        {
          lf_loss = !lf_loss;
          lf_dup = !lf_dup;
          lf_reorder = !lf_reorder;
          lf_reorder_window = !lf_reorder_window;
        }
  | "partition" ->
      let from_frac, until_frac, rest = window_of pos args in
      List.iter
        (fun item ->
          let key, _, kpos = form_of item in
          fail kpos "unknown partition key '%s' (from-frac|until-frac)" key)
        rest;
      Partition_fault { from_frac; until_frac }
  | "outage" ->
      let from_frac, until_frac, rest = window_of pos args in
      let node = ref None in
      List.iter
        (fun item ->
          let key, kargs, kpos = form_of item in
          match key with
          | "node" -> node := Some (int_of (single kpos key kargs))
          | _ ->
              fail kpos "unknown outage key '%s' (node|from-frac|until-frac)"
                key)
        rest;
      let node =
        match !node with
        | Some n -> n
        | None -> fail pos "an outage needs (node I)"
      in
      Outage_fault { node; from_frac; until_frac }
  | _ -> fail pos "unknown fault form '%s' (link|partition|outage)" head

let set pos what r x =
  match !r with
  | Some _ -> fail pos "duplicate setting '%s'" what
  | None -> r := Some x

let churn_of pos (args : Sexp.t list) =
  let rate = ref None and start = ref None and style = ref None in
  List.iter
    (fun item ->
      let key, kargs, kpos = form_of item in
      match key with
      | "rate" -> rate := Some (prob_of (single kpos key kargs))
      | "start-frac" ->
          set kpos key start (prob_of (single kpos key kargs))
      | "style" -> (
          match atom_of (single kpos key kargs) ~what:"a churn style" with
          | "replace" -> style := Some Churn.Replace
          | "crash" -> style := Some Churn.Crash
          | a -> fail kpos "unknown churn style '%s' (replace|crash)" a)
      | _ ->
          fail kpos "unknown churn key '%s' (rate|start-frac|style)" key)
    args;
  match !rate with
  | Some churn_rate ->
      { churn_rate; churn_start_frac = !start; churn_style = !style }
  | None -> fail pos "churn needs (rate F)"

(* ------------------------------------------------------------------ *)
(* Bindings                                                            *)

let positive_int (s : Sexp.t) ~what =
  let x = int_of s in
  if x <= 0 then fail s.pos "%s must be positive" what;
  x

let positive_float (s : Sexp.t) ~what =
  let x = float_of s in
  if x <= 0.0 then fail s.pos "%s must be positive" what;
  x

let rank_of (s : Sexp.t) =
  match s.desc with
  | Atom "cheap" -> Cheap
  | Atom a -> fail s.pos "unknown rank '%s' (cheap|(prefix-diverse H A))" a
  | List _ -> (
      let head, args, pos = form_of s in
      match head with
      | "prefix-diverse" ->
          arity pos head 2 args;
          let count i = positive_int (List.nth args i) ~what:"prefix count" in
          Prefix_diverse { honest_prefixes = count 0; attacker_prefixes = count 1 }
      | _ -> fail pos "unknown rank '%s' (cheap|(prefix-diverse H A))" head)

(* [allow_seeds]: (seeds ...) may only appear in (base ...), so every
   pivot group averages over the same seed list. *)
let settings_of ~allow_seeds (forms : Sexp.t list) =
  let seeds = ref None in
  let bind s item =
    let key, args, pos = form_of item in
    (* [once old x] binds [x], parsed first, unless [old] is bound. *)
    let once old x =
      if Option.is_some old then fail pos "duplicate setting '%s'" key;
      Some x
    in
    let arg () = single pos key args in
    match key with
    | "n" ->
        { s with n = once s.n (positive_int (arg ()) ~what:"network size n") }
    | "v" -> { s with v = once s.v (positive_int (arg ()) ~what:"view size v") }
    | "f" ->
        let x = prob_of (arg ()) in
        if x >= 1.0 then fail pos "byzantine fraction f must be in [0,1)";
        { s with f = once s.f x }
    | "force" ->
        let x = float_of (arg ()) in
        if x < 0.0 then fail pos "attack force must be >= 0";
        { s with force = once s.force x }
    | "rho" -> { s with rho = once s.rho (positive_float (arg ()) ~what:"rho") }
    | "steps" ->
        { s with steps = once s.steps (positive_float (arg ()) ~what:"steps") }
    | "protocol" -> { s with protocol = once s.protocol (protocol_of (arg ())) }
    | "strategy" -> { s with strategy = once s.strategy (strategy_of (arg ())) }
    | "latency" -> { s with latency = once s.latency (latency_of (arg ())) }
    | "loss" -> { s with loss = once s.loss (loss_of (arg ())) }
    | "fault" ->
        if args = [] then fail pos "(fault ...) needs at least one form";
        { s with faults = once s.faults (List.map fault_form_of args) }
    | "churn" -> { s with churn = once s.churn (churn_of pos args) }
    | "measure-every" ->
        let x = positive_float (arg ()) ~what:"measure-every" in
        { s with measure_every = once s.measure_every x }
    | "rank" -> { s with rank = once s.rank (rank_of (arg ())) }
    | "seeds" ->
        if not allow_seeds then
          fail pos "(seeds ...) is only allowed in (base ...)";
        if args = [] then fail pos "(seeds ...) needs at least one seed";
        set pos key seeds (List.map int_of args);
        s
    | _ -> fail pos "unknown setting '%s'" key
  in
  let settings = List.fold_left bind empty_settings forms in
  (settings, !seeds)

(* ------------------------------------------------------------------ *)
(* Axes, app, metrics                                                  *)

let axis_of pos (args : Sexp.t list) =
  match args with
  | [] -> fail pos "(axis ...) needs a name"
  | name_s :: items ->
      let axis_name = atom_of name_s ~what:"an axis name" in
      let trace_key = ref None
      and display_float = ref false
      and sweep = ref None in
      let entries =
        List.filter_map
          (fun item ->
            let head, iargs, ipos = form_of item in
            match head with
            | "trace-key" ->
                set ipos head trace_key
                  (atom_of (single ipos head iargs) ~what:"a trace key");
                None
            | "display" -> (
                let mode = single ipos head iargs in
                match atom_of mode ~what:"a display mode" with
                | "float" ->
                    display_float := true;
                    None
                | a -> fail ipos "unknown display mode '%s' (float)" a)
            | "sweep" ->
                set ipos head sweep
                  (match
                     atom_of (single ipos head iargs) ~what:"a preset name"
                   with
                  | "f" -> Sweep_f
                  | "force" -> Sweep_force
                  | "rho" -> Sweep_rho
                  | "v" -> Sweep_v
                  | "sybils" -> Sweep_sybils
                  | a ->
                      fail ipos
                        "unknown sweep preset '%s' (f|force|rho|v|sybils)" a);
                None
            | label ->
                let bindings, _ = settings_of ~allow_seeds:false iargs in
                Some ({ label; bindings }, ipos))
          items
      in
      (match (!sweep, entries) with
      | None, [] -> fail pos "axis '%s' has no entries" axis_name
      | Some _, (_, epos) :: _ ->
          fail epos "sweep axis '%s' takes no written entries" axis_name
      | None, _ :: _ | Some _, [] -> ());
      let seen = Hashtbl.create 8 in
      List.iter
        (fun ({ label; _ }, epos) ->
          if Hashtbl.mem seen label then
            fail epos "duplicate entry '%s' in axis '%s'" label axis_name;
          Hashtbl.replace seen label ())
        entries;
      if !display_float then
        List.iter
          (fun ({ label; _ }, epos) ->
            if Option.is_none (float_of_string_opt label) then
              fail epos
                "axis '%s' has (display float) but entry '%s' is not a number"
                axis_name label)
          entries;
      {
        axis_name;
        trace_key = !trace_key;
        display_float = !display_float || Option.is_some !sweep;
        entries = List.map fst entries;
        sweep = !sweep;
      }

let app_of pos (args : Sexp.t list) =
  match args with
  | [ one ] -> (
      let head, gargs, gpos = form_of one in
      match head with
      | "gossip" ->
          let publishes = ref None
          and warmup_frac = ref None
          and payload_bytes = ref None in
          List.iter
            (fun item ->
              let key, kargs, kpos = form_of item in
              match key with
              | "publishes" ->
                  publishes :=
                    Some
                      (positive_int (single kpos key kargs) ~what:"publishes")
              | "warmup-frac" ->
                  warmup_frac := Some (prob_of (single kpos key kargs))
              | "payload-bytes" ->
                  payload_bytes :=
                    Some
                      (positive_int ~what:"payload-bytes"
                         (single kpos key kargs))
              | _ ->
                  fail kpos
                    "unknown gossip key '%s' \
                     (publishes|warmup-frac|payload-bytes)"
                    key)
            gargs;
          (try
             Gossip_app.params ?publishes:!publishes
               ?warmup_frac:!warmup_frac ?payload_bytes:!payload_bytes ()
           with Invalid_argument msg -> fail gpos "%s" msg)
      | _ -> fail gpos "unknown app '%s' (gossip)" head)
  | _ -> fail pos "(app ...) takes exactly one (gossip ...) form"

let metric_of pos name =
  match Metric.find name with
  | Some m -> m
  | None ->
      fail pos "unknown metric '%s' (%s)" name
        (String.concat "|" (List.map (fun m -> m.Metric.keyword) Metric.all))

let metrics_of pos (args : Sexp.t list) =
  if args = [] then fail pos "(metrics ...) needs at least one metric";
  List.map
    (fun item ->
      let head, margs, mpos = form_of item in
      let m = metric_of mpos head in
      if m.level <> Metric.Run && margs <> [] then
        fail mpos "metric '%s' is cell-level and takes no pivot labels" head;
      let label (l : Sexp.t) = (atom_of l ~what:"a pivot label", l.pos) in
      (m, List.map label margs, mpos))
    args

(* ------------------------------------------------------------------ *)
(* The (matrix ...) form                                               *)

let of_sexp (s : Sexp.t) =
  let head, body, pos = form_of s in
  if head <> "matrix" then fail s.pos "expected a (matrix ...) form";
  let name = ref None
  and title = ref None
  and doc = ref None
  and base = ref None
  and at_scale = ref []
  and seeds = ref None
  and axes = ref []
  and pivot_name = ref None
  and within = ref None
  and app = ref None
  and metrics = ref None
  and time_rows = ref None
  and reference = ref None
  and fit = ref None
  and caption = ref None in
  List.iter
    (fun item ->
      let key, args, kpos = form_of item in
      match key with
      | "name" ->
          set kpos key name
            (atom_of (single kpos key args) ~what:"a matrix name")
      | "title" ->
          set kpos key title (atom_of (single kpos key args) ~what:"a title")
      | "doc" ->
          set kpos key doc (atom_of (single kpos key args) ~what:"a help line")
      | "base" ->
          if Option.is_some !base then fail kpos "duplicate setting 'base'";
          let bindings, s = settings_of ~allow_seeds:true args in
          base := Some bindings;
          seeds := s
      | "at-scale" -> (
          match args with
          | [] -> fail kpos "(at-scale ...) needs a scale"
          | scale_s :: forms ->
              let scale =
                match Scale.of_string (atom_of scale_s ~what:"a scale") with
                | Ok scale -> scale
                | Error msg -> fail scale_s.pos "%s" msg
              in
              if List.mem_assoc scale !at_scale then
                fail kpos "duplicate (at-scale %s ...)" (Scale.to_string scale);
              let bindings, _ = settings_of ~allow_seeds:false forms in
              at_scale := (scale, bindings) :: !at_scale)
      | "axis" -> axes := axis_of kpos args :: !axes
      | "pivot" ->
          set kpos key pivot_name
            (atom_of (single kpos key args) ~what:"an axis name")
      | "within" ->
          set kpos key within
            (positive_float (single kpos key args) ~what:"within")
      | "app" -> set kpos key app (app_of kpos args)
      | "metrics" ->
          if Option.is_some !metrics then
            fail kpos "duplicate setting 'metrics'";
          metrics := Some (metrics_of kpos args)
      | "rows" -> (
          match atom_of (single kpos key args) ~what:"a row layout" with
          | "time" -> set kpos key time_rows kpos
          | a -> fail kpos "unknown row layout '%s' (time)" a)
      | "reference" ->
          set kpos key reference
            (atom_of (single kpos key args) ~what:"a row label", kpos)
      | "fit" ->
          let arg = single kpos key args in
          set kpos key fit
            (metric_of arg.pos (atom_of arg ~what:"a metric"), [], kpos)
      | "caption" ->
          if args = [] then fail kpos "(caption ...) needs at least one line";
          set kpos key caption
            (List.map (fun l -> atom_of l ~what:"a caption line") args)
      | _ -> fail kpos "unknown matrix key '%s'" key)
    body;
  let name =
    match !name with Some n -> n | None -> fail pos "missing (name ...)"
  in
  let axes = List.rev !axes in
  if axes = [] then fail pos "a matrix needs at least one (axis ...)";
  let seen = Hashtbl.create 4 in
  List.iter
    (fun ax ->
      if Hashtbl.mem seen ax.axis_name then
        fail pos "duplicate axis '%s'" ax.axis_name;
      Hashtbl.replace seen ax.axis_name ())
    axes;
  let last_axis = List.nth axes (List.length axes - 1) in
  Option.iter
    (fun p ->
      if not (List.exists (fun ax -> ax.axis_name = p) axes) then
        fail pos "pivot '%s' does not name an axis" p;
      if last_axis.axis_name <> p then
        fail pos "pivot axis '%s' must be the last axis declared" p)
    !pivot_name;
  let metrics =
    match !metrics with
    | Some ms -> ms
    | None -> fail pos "missing (metrics ...)"
  in
  let pivoted = Option.is_some !pivot_name in
  let written = List.map (fun e -> e.label) last_axis.entries in
  (* A sweep pivot's headers are checked on the quick preset's labels. *)
  let pivot_labels =
    if pivoted then List.map (fun e -> e.label) (entries Scale.Quick last_axis)
    else [ "" ]
  in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun ((m : Metric.t), labels, mpos) ->
      if List.mem Metric.Gossip m.needs && Option.is_none !app then
        fail mpos "metric '%s' needs (app (gossip ...))" m.keyword;
      if labels <> [] && not pivoted then
        fail mpos "metric '%s' takes no labels without a (pivot ...)" m.keyword;
      List.iter
        (fun (l, _) ->
          if not (List.mem l written) then
            fail mpos "metric label '%s' is not an entry of pivot axis '%s'" l
              last_axis.axis_name)
        labels;
      (* Each listed label, or an unlabelled item, must add only new
         headers, or the table, the CSV and a lookup by header would be
         ambiguous. *)
      List.iter
        (fun (ls, lpos) ->
          List.iter
            (fun (header, _) ->
              if Hashtbl.mem seen header then
                fail lpos "duplicate metric column '%s'" header;
              Hashtbl.replace seen header ())
            (item_columns ~pivoted pivot_labels (m, ls)))
        (if labels = [] then [ ([], mpos) ]
         else List.map (fun (l, lpos) -> ([ l ], lpos)) labels))
    metrics;
  (match !time_rows with
  | Some _ ->
      List.iter
        (fun ((m : Metric.t), _, mpos) ->
          match m.source with
          | Metric.Point _ -> ()
          | Metric.Histogram _ | Metric.Scope _ ->
              fail mpos "metric '%s' has no per-point value for (rows time)"
                m.keyword)
        (metrics @ Option.to_list !fit)
  | None ->
      Option.iter
        (fun (_, _, fpos) -> fail fpos "(fit ...) needs (rows time)")
        !fit);
  let histogram (m : Metric.t) =
    match m.source with
    | Metric.Histogram _ -> true
    | Metric.Point _ | Metric.Scope _ -> false
  in
  Option.iter
    (fun (_, rpos) ->
      if
        pivoted
        || List.length axes <> 1
        || not (List.for_all (fun (m, _, _) -> histogram m) metrics)
      then
        fail rpos
          "(reference ...) needs one axis, no (pivot ...) and only histogram \
           metrics (%s)"
          (String.concat "|"
             (List.filter_map
                (fun (m : Metric.t) ->
                  if histogram m then Some m.keyword else None)
                Metric.all)))
    !reference;
  let spec =
    {
      name;
      title = !title;
      doc = !doc;
      base = Option.value !base ~default:empty_settings;
      at_scale = List.rev !at_scale;
      seeds = !seeds;
      axes;
      pivoted;
      within = Option.value !within ~default:0.25;
      app = !app;
      metrics =
        List.map (fun (m, labels, _) -> (m, List.map fst labels)) metrics;
      time_rows = Option.is_some !time_rows;
      reference = Option.map fst !reference;
      fit = Option.map (fun (m, _, _) -> m) !fit;
      caption = Option.value !caption ~default:[];
    }
  in
  (* Every cell at every scale must bind a protocol, only the protocols
     with a sampling rate may bind (rho ...), and only Basalt ranks. *)
  List.iter
    (fun scale ->
      List.iter
        (fun (labels, s) ->
          let cell () =
            String.concat ", " (List.map (fun (a, l) -> a ^ "=" ^ l) labels)
          in
          match (s.protocol, s.rho, s.rank) with
          | None, _, _ ->
              fail pos
                "no protocol bound: set (protocol ...) in (base ...) or on \
                 every entry of an axis"
          | Some ("sps" | "classic"), Some _, _ ->
              fail pos
                "cell %s binds (rho ...), which only basalt and brahms take"
                (cell ())
          | Some p, _, Some _ when not (String.equal p "basalt") ->
              fail pos "cell %s binds (rank ...), which only basalt takes"
                (cell ())
          | Some _, _, _ -> ())
        (cells scale spec))
    [ Scale.Quick; Scale.Standard; Scale.Full ];
  spec

let of_sexps ~file (sexps : Sexp.t list) =
  try
    match sexps with
    | [ s ] -> Ok (of_sexp s)
    | [] ->
        Error
          (Printf.sprintf "%s:1:1: empty file: expected a (matrix ...) form"
             file)
    | _ :: extra :: _ ->
        raise (Fail (extra.pos, "expected a single (matrix ...) form"))
  with Fail (pos, msg) ->
    Error (Printf.sprintf "%s:%d:%d: %s" file pos.Sexp.line pos.Sexp.col msg)

let of_string ?(file = "<string>") src =
  match Sexp.parse_string src with
  | Error e -> Error (Sexp.format_error ~file e)
  | Ok sexps -> of_sexps ~file sexps

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error (`Unreadable msg)
  | src -> (
      match of_string ~file:path src with
      | Ok spec -> Ok spec
      | Error msg -> Error (`Invalid msg))
