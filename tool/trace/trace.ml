(* Offline analyzer for the JSONL traces written by `repro --trace`
   (DESIGN.md §8).  Every function is a pure map from parsed events to a
   report string: no clocks, no randomness, stable sort orders and
   fixed-format floats, so a report is byte-identical for byte-identical
   traces — which the CI determinism matrix checks across -j levels. *)

module Obs = Basalt_obs.Obs

type format = Text | Csv | Json

let format_of_string = function
  | "text" -> Some Text
  | "csv" -> Some Csv
  | "json" -> Some Json
  | _ -> None

(* --- Parsing --- *)

exception Parse_error of { line : int; text : string }

let parse_lines lines =
  let events = ref [] in
  List.iteri
    (fun i line ->
      if String.trim line <> "" then
        match Obs.event_of_json line with
        | Some e -> events := e :: !events
        | None -> raise (Parse_error { line = i + 1; text = line }))
    lines;
  List.rev !events

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      parse_lines (List.rev !lines))

(* --- Small helpers --- *)

let field_str e k =
  match List.assoc_opt k e.Obs.fields with Some (Obs.Str s) -> Some s | _ -> None

let field_num e k =
  match List.assoc_opt k e.Obs.fields with
  | Some (Obs.Float x) -> Some x
  | Some (Obs.Int n) -> Some (float_of_int n)
  | _ -> None

(* Exact nearest-rank quantile over a sorted array: rank ceil(q * n),
   clamped to [1, n]. *)
let quantile_sorted arr q =
  let n = Array.length arr in
  if n = 0 then 0.0
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    let r = if r < 1 then 1 else if r > n then n else r in
    arr.(r - 1)

let group_by_name sel events =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun e ->
      match sel e with
      | None -> ()
      | Some v ->
          let prev = try Hashtbl.find tbl e.Obs.name with Not_found -> [] in
          Hashtbl.replace tbl e.Obs.name (v :: prev))
    events;
  Hashtbl.fold (fun name vs acc -> (name, List.rev vs) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let json_str s = "\"" ^ Obs.escape_json s ^ "\""

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_str k ^ ":" ^ v) fields)
  ^ "}"

let json_array items = "[" ^ String.concat "," items ^ "]"

let lines ls = String.concat "\n" ls ^ "\n"

(* --- summarize: per-event-name counts and time extents --- *)

let summarize ?(format = Text) events =
  let rows = group_by_name (fun e -> Some e.Obs.time) events in
  let total = List.length events in
  let trace_ids = Hashtbl.create 32 in
  let traced = ref 0 in
  List.iter
    (fun e ->
      match field_str e "trace" with
      | Some id ->
          incr traced;
          Hashtbl.replace trace_ids id ()
      | None -> ())
    events;
  let row_stats (name, times) =
    let first = List.fold_left Float.min Float.infinity times in
    let last = List.fold_left Float.max Float.neg_infinity times in
    (name, List.length times, first, last)
  in
  let stats = List.map row_stats rows in
  match format with
  | Text ->
      lines
        (Printf.sprintf "events %d  names %d  trace_ids %d  traced_events %d"
           total (List.length stats) (Hashtbl.length trace_ids) !traced
        :: Printf.sprintf "%-32s %10s %14s %14s" "name" "count" "first" "last"
        :: List.map
             (fun (name, count, first, last) ->
               Printf.sprintf "%-32s %10d %14s %14s" name count (Obs.float_string first)
                 (Obs.float_string last))
             stats)
  | Csv ->
      lines
        ("name,count,first,last"
        :: List.map
             (fun (name, count, first, last) ->
               Printf.sprintf "%s,%d,%s,%s" name count (Obs.float_string first) (Obs.float_string last))
             stats)
  | Json ->
      json_obj
        [
          ("events", string_of_int total);
          ("trace_ids", string_of_int (Hashtbl.length trace_ids));
          ("traced_events", string_of_int !traced);
          ( "names",
            json_array
              (List.map
                 (fun (name, count, first, last) ->
                   json_obj
                     [
                       ("name", json_str name);
                       ("count", string_of_int count);
                       ("first", Obs.float_string first);
                       ("last", Obs.float_string last);
                     ])
                 stats) );
        ]
      ^ "\n"

(* --- spans: duration percentiles of span-end events --- *)

let span_dur e =
  match (field_num e "sid", field_num e "t0", field_num e "dur") with
  | Some _, Some _, Some d -> Some d
  | _ -> None

let spans ?(format = Text) events =
  let rows = group_by_name span_dur events in
  let stats =
    List.map
      (fun (name, durs) ->
        let arr = Array.of_list durs in
        Array.sort compare arr;
        ( name,
          Array.length arr,
          quantile_sorted arr 0.5,
          quantile_sorted arr 0.9,
          quantile_sorted arr 0.99,
          (if Array.length arr = 0 then 0.0 else arr.(Array.length arr - 1)) ))
      rows
  in
  match format with
  | Text ->
      lines
        (Printf.sprintf "%-32s %10s %12s %12s %12s %12s" "span" "count" "p50"
           "p90" "p99" "max"
        :: List.map
             (fun (name, count, p50, p90, p99, mx) ->
               Printf.sprintf "%-32s %10d %12s %12s %12s %12s" name count
                 (Obs.float_string p50) (Obs.float_string p90) (Obs.float_string p99) (Obs.float_string mx))
             stats)
  | Csv ->
      lines
        ("span,count,p50,p90,p99,max"
        :: List.map
             (fun (name, count, p50, p90, p99, mx) ->
               Printf.sprintf "%s,%d,%s,%s,%s,%s" name count (Obs.float_string p50)
                 (Obs.float_string p90) (Obs.float_string p99) (Obs.float_string mx))
             stats)
  | Json ->
      json_array
        (List.map
           (fun (name, count, p50, p90, p99, mx) ->
             json_obj
               [
                 ("span", json_str name);
                 ("count", string_of_int count);
                 ("p50", Obs.float_string p50);
                 ("p90", Obs.float_string p90);
                 ("p99", Obs.float_string p99);
                 ("max", Obs.float_string mx);
               ])
           stats)
      ^ "\n"

(* --- curve: time-binned (or latency-binned) event counts --- *)

(* With [ttd] set, each matching event's x-coordinate is its latency
   since the first event in the file carrying the same [trace] id (for
   gossip, the publish) — the time-to-delivery distribution; events with
   no trace id, or whose id never appeared before, are dropped.
   Otherwise x is absolute virtual time.  Counts are binned into
   [bucket]-wide cells; only populated cells are printed, with a
   cumulative column so dissemination curves read directly. *)
let curve ?(format = Text) ?(bucket = 1.0) ?(ttd = false) ~ev events =
  if bucket <= 0.0 then invalid_arg "Trace.curve: bucket must be > 0";
  let xs =
    if not ttd then
      List.filter_map
        (fun e -> if e.Obs.name = ev then Some e.Obs.time else None)
        events
    else begin
      let t0 = Hashtbl.create 32 in
      let out = ref [] in
      List.iter
        (fun e ->
          match field_str e "trace" with
          | None -> ()
          | Some id ->
              (match Hashtbl.find_opt t0 id with
              | None -> Hashtbl.add t0 id e.Obs.time
              | Some start ->
                  if e.Obs.name = ev then out := (e.Obs.time -. start) :: !out))
        events;
      List.rev !out
    end
  in
  let cells = Hashtbl.create 64 in
  List.iter
    (fun x ->
      let i = int_of_float (Float.floor (x /. bucket)) in
      Hashtbl.replace cells i
        (1 + try Hashtbl.find cells i with Not_found -> 0))
    xs;
  let sorted =
    Hashtbl.fold (fun i c acc -> (i, c) :: acc) cells []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let rows =
    let cum = ref 0 in
    List.map
      (fun (i, c) ->
        cum := !cum + c;
        (float_of_int i *. bucket, c, !cum))
      sorted
  in
  let x_label = if ttd then "latency" else "t" in
  match format with
  | Text ->
      lines
        (Printf.sprintf "%-14s %10s %10s" x_label "count" "cum"
        :: List.map
             (fun (x, c, cum) ->
               Printf.sprintf "%-14s %10d %10d" (Obs.float_string x) c cum)
             rows)
  | Csv ->
      lines
        (Printf.sprintf "%s,count,cum" x_label
        :: List.map
             (fun (x, c, cum) -> Printf.sprintf "%s,%d,%d" (Obs.float_string x) c cum)
             rows)
  | Json ->
      json_array
        (List.map
           (fun (x, c, cum) ->
             json_obj
               [
                 (x_label, Obs.float_string x);
                 ("count", string_of_int c);
                 ("cum", string_of_int cum);
               ])
           rows)
      ^ "\n"

(* --- diff: A/B comparison of per-name counts and span medians --- *)

let diff ?(format = Text) events_a events_b =
  let count_map events =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun e ->
        Hashtbl.replace tbl e.Obs.name
          (1 + try Hashtbl.find tbl e.Obs.name with Not_found -> 0))
      events;
    tbl
  in
  let p50_map events =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun (name, durs) ->
        let arr = Array.of_list durs in
        Array.sort compare arr;
        Hashtbl.replace tbl name (quantile_sorted arr 0.5))
      (group_by_name span_dur events);
    tbl
  in
  let ca = count_map events_a and cb = count_map events_b in
  let pa = p50_map events_a and pb = p50_map events_b in
  let names = Hashtbl.create 32 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace names k ()) ca;
  Hashtbl.iter (fun k _ -> Hashtbl.replace names k ()) cb;
  let sorted =
    Hashtbl.fold (fun k () acc -> k :: acc) names [] |> List.sort String.compare
  in
  let get tbl k = try Hashtbl.find tbl k with Not_found -> 0 in
  let rows =
    List.map
      (fun name ->
        let a = get ca name and b = get cb name in
        ( name,
          a,
          b,
          b - a,
          Hashtbl.find_opt pa name,
          Hashtbl.find_opt pb name ))
      sorted
  in
  let opt_f = function Some x -> Obs.float_string x | None -> "-" in
  match format with
  | Text ->
      lines
        (Printf.sprintf "%-32s %10s %10s %10s %12s %12s" "name" "a" "b"
           "delta" "p50_a" "p50_b"
        :: List.map
             (fun (name, a, b, d, qa, qb) ->
               Printf.sprintf "%-32s %10d %10d %+10d %12s %12s" name a b d
                 (opt_f qa) (opt_f qb))
             rows)
  | Csv ->
      lines
        ("name,count_a,count_b,delta,p50_a,p50_b"
        :: List.map
             (fun (name, a, b, d, qa, qb) ->
               Printf.sprintf "%s,%d,%d,%d,%s,%s" name a b d (opt_f qa)
                 (opt_f qb))
             rows)
  | Json ->
      json_array
        (List.map
           (fun (name, a, b, d, qa, qb) ->
             json_obj
               ([
                  ("name", json_str name);
                  ("count_a", string_of_int a);
                  ("count_b", string_of_int b);
                  ("delta", string_of_int d);
                ]
               @ (match qa with Some x -> [ ("p50_a", Obs.float_string x) ] | None -> [])
               @ match qb with Some x -> [ ("p50_b", Obs.float_string x) ] | None -> []))
           rows)
      ^ "\n"
