open Basalt_e2e

(* End-to-end benchmark: four workloads through the program's public
   entry points, measured from outside, plus a traced pass that splits a
   simulated run's time across layers.

     dune exec bench/e2e/main.exe -- --workload NAME [--seed N]
       [--seconds S] [--trace 0|1] [--reps N] [--json FILE]
       [--spans-dir DIR]

   Every set-up and every run is a fresh child process (this executable
   again, with --child), one at a time, so each peak heap belongs to one
   run.  With --trace 0 it alternates set-up and untraced runs for
   --seconds (at least --reps of each) and prints the end-to-end
   metrics; with --trace 1 it pairs untraced and traced runs
   for --seconds and prints the per-layer metrics.  Every run's output is
   checked: at seed 42 against the pinned digest, at any other seed for
   agreement between all runs.  The last line of stdout is one JSON
   object; the exit code is 0 only when every run was correct. *)

let usage =
  "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
   [--reps N] [--json FILE] [--spans-dir DIR]\nworkloads: "
  ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  reps : int;
  json : string option;
  spans_dir : string;
  child : string option;
  spans_file : string option;
}

let parse argv =
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> go { o with workload = v } rest
    | "--seed" :: v :: rest -> go { o with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { o with seconds = float_of_string v } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = String.equal v "1" } rest
    | "--reps" :: v :: rest -> go { o with reps = max 1 (int_of_string v) } rest
    | "--json" :: v :: rest -> go { o with json = Some v } rest
    | "--spans-dir" :: v :: rest -> go { o with spans_dir = v } rest
    | "--child" :: v :: rest -> go { o with child = Some v } rest
    | "--spans" :: v :: rest -> go { o with spans_file = Some v } rest
    | arg :: _ -> failwith ("unexpected argument " ^ arg)
  in
  go
    {
      workload = "";
      seed = 42;
      seconds = 20.0;
      trace = false;
      reps = 3;
      json = None;
      spans_dir = "bench/e2e/out";
      child = None;
      spans_file = None;
    }
    (List.tl (Array.to_list argv))

(* --- Child side ------------------------------------------------------- *)

let child o w role =
  let r =
    match role with
    | "setup" -> Workloads.setup w ~seed:o.seed
    | "run" -> Workloads.run w ~seed:o.seed
    | "traced" -> Workloads.traced ?spans_file:o.spans_file w ~seed:o.seed
    | "registry" -> Workloads.with_registry w ~seed:o.seed
    | _ -> failwith ("unknown child role " ^ role)
  in
  List.iter (fun (k, v) -> Printf.printf "%s %.17g\n" k v) r.Workloads.values;
  Option.iter (Printf.printf "digest %s\n") r.digest

(* --- Parent side ------------------------------------------------------ *)

let parse_result lines =
  List.fold_left
    (fun acc line ->
      match (acc, String.split_on_char ' ' line) with
      | Some r, [ "digest"; d ] -> Some { r with Workloads.digest = Some d }
      | Some r, [ k; v ] -> (
          match float_of_string_opt v with
          | Some x -> Some { r with Workloads.values = (k, x) :: r.Workloads.values }
          | None -> None)
      | _ -> None)
    (Some { Workloads.values = []; digest = None })
    lines

(* The running child, which a parent stopped by SIGINT or SIGTERM stops
   and waits for before exiting. *)
let running = ref None

let stop_children_on_signals () =
  let stop _ =
    Option.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      !running;
    exit 130
  in
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle stop)) [ Sys.sigint; Sys.sigterm ]

(* Runs one child to completion; [None] if it failed. *)
let spawn o w role ?spans_file () =
  let args =
    [ Sys.executable_name; "--child"; role; "--workload"; w.Workloads.name;
      "--seed"; string_of_int o.seed ]
    @ match spans_file with Some f -> [ "--spans"; f ] | None -> []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  running := Some (Unix.process_in_pid ic);
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  let status = Unix.close_process_in ic in
  running := None;
  match status with
  | Unix.WEXITED 0 -> parse_result lines
  | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> None

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

type state = {
  o : opts;
  w : Workloads.t;
  mutable attempted : int;
  mutable failed : int;
  mutable reference : string option;
  mutable reps : (int * Metrics.m list) list;  (** Newest first. *)
}

(* Spawns a child and checks its output; a failed or wrong child counts
   in [failed] and yields [None]. *)
let attempt st role ?spans_file () =
  st.attempted <- st.attempted + 1;
  let ok (r : Workloads.result) =
    let digest_ok =
      match (r.digest, st.reference) with
      | None, _ -> true
      | Some d, None ->
          st.reference <- Some d;
          true
      | Some d, Some expected -> String.equal d expected
    in
    let checks_ok =
      match List.assoc_opt "ok" r.values with Some v -> Float.equal v 1.0 | None -> true
    in
    let spans_ok =
      let total = Metrics.get r "traced_ns" in
      Float.abs (Metrics.get r "self_sum_ns" -. total) <= 0.01 *. total
    in
    digest_ok && checks_ok && spans_ok
  in
  match spawn st.o st.w role ?spans_file () with
  | Some r when ok r -> Some r
  | Some _ | None ->
      st.failed <- st.failed + 1;
      None

let record st ms = st.reps <- (List.length st.reps, ms) :: st.reps

let elapsed t0 = float_of_int (Clock.now_ns () - t0) *. 1e-9

(* Set-ups and runs alternate, so that both sample the same stretch of a
   shared host's load. *)
let measure_end_to_end st =
  let t0 = Clock.now_ns () in
  let n = ref 0 in
  while !n < st.o.reps || elapsed t0 < st.o.seconds do
    incr n;
    Option.iter (fun r -> record st (Metrics.of_setup r)) (attempt st "setup" ());
    Option.iter
      (fun r -> record st (Metrics.of_run r @ Metrics.run_details st.w r))
      (attempt st "run" ())
  done;
  List.map fst Metrics.end_to_end_units

let measure_layers st =
  let proto, sim =
    match st.w.kind with
    | Workloads.Sim s ->
        (Basalt_sim.Scenario.protocol_name (s.scenario ~steps:s.steps ~seed:st.o.seed), Some s)
    | Workloads.Udp _ -> ("", None)
  in
  let spans_file =
    match sim with
    | Some _ ->
        mkdir_p st.o.spans_dir;
        Some (Filename.concat st.o.spans_dir (st.w.name ^ ".spans.jsonl"))
    | None -> None
  in
  let t0 = Clock.now_ns () in
  let n = ref 0 in
  while !n = 0 || elapsed t0 < st.o.seconds do
    let spans_file = if !n = 0 then spans_file else None in
    incr n;
    let run = attempt st "run" () in
    let traced = match sim with Some _ -> attempt st "traced" ?spans_file () | None -> None in
    let registry =
      match sim with
      | Some { Workloads.gossip = None; _ } -> attempt st "registry" ()
      | Some _ | None -> None
    in
    match (run, sim, traced) with
    | Some run, None, _ | Some run, Some _, Some _ ->
        record st
          (List.concat
             [
               Metrics.per_layer ~run ?traced ();
               Metrics.run_details st.w run;
               Option.fold ~none:[] ~some:(Metrics.span_details ~proto) traced;
               Option.fold ~none:[] ~some:(fun g -> [ Metrics.registry_overhead ~run g ]) registry;
             ])
    | _ -> ()
  done;
  List.map fst Metrics.per_layer_units

let json_number v = Printf.sprintf "%.17g" (if Float.is_finite v then v else 0.0)

let summarise st names =
  let values name =
    List.concat_map
      (fun (_, ms) ->
        List.filter_map
          (fun m -> if String.equal m.Metrics.name name then Some m else None)
          ms)
      (List.rev st.reps)
  in
  let all_names =
    List.sort_uniq String.compare
      (List.concat_map (fun (_, ms) -> List.map (fun m -> m.Metrics.name) ms) st.reps)
  in
  let extra = List.filter (fun n -> not (List.mem n names)) all_names in
  let line tag name =
    match values name with
    | [] -> None
    | m :: _ as ms ->
        let p25, p50, p75 = Metrics.quartiles (List.map (fun m -> m.Metrics.value) ms) in
        Printf.printf "  %-6s %-34s %14.6g %-6s (p25 %.6g, p75 %.6g, n=%d)\n" tag name p50
          m.Metrics.unit p25 p75 (List.length ms);
        Some (name, p50, m.Metrics.unit)
  in
  let main = List.filter_map (line "metric") names in
  ignore (List.filter_map (line "detail") extra);
  main

let write_json_lines st path =
  let oc = open_out path in
  List.iter
    (fun (rep, ms) ->
      List.iter
        (fun m ->
          Printf.fprintf oc
            "{\"workload\":%S,\"seed\":%d,\"trace\":%d,\"rep\":%d,\"metric\":%S,\"value\":%s,\"unit\":%S}\n"
            st.w.name st.o.seed (if st.o.trace then 1 else 0) rep m.Metrics.name
            (json_number m.value) m.unit)
        ms)
    (List.rev st.reps);
  close_out oc

let parent o w =
  stop_children_on_signals ();
  let st =
    {
      o;
      w;
      attempted = 0;
      failed = 0;
      reference = (if o.seed = 42 then w.Workloads.pin else None);
      reps = [];
    }
  in
  let names = if o.trace then measure_layers st else measure_end_to_end st in
  Printf.printf "e2e %s: seed %d, trace %d, %d attempted, %d failed, digest %s%s\n"
    w.name o.seed (if o.trace then 1 else 0) st.attempted st.failed
    (Option.value st.reference ~default:"-")
    (if o.seed = 42 && Option.is_some w.pin then " (pinned)" else "");
  let medians = summarise st names in
  Option.iter (write_json_lines st) o.json;
  let correct = st.failed = 0 && List.length medians = List.length names in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct st.attempted st.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          medians));
  if not correct then exit 1

let () =
  match parse Sys.argv with
  | exception (Failure msg | Invalid_argument msg) ->
      prerr_endline (msg ^ "\n" ^ usage);
      exit 2
  | o -> (
      match Workloads.find o.workload with
      | None ->
          prerr_endline usage;
          exit 2
      | Some w -> (
          match o.child with Some role -> child o w role | None -> parent o w))
