(* The benchmark's own checks, on the workloads at toy size: the traced
   copy reproduces [Runner]'s output and accounts for all of its time,
   the metrics printed are the ones BENCHMARK.json lists, and the UDP
   cluster decodes every datagram. *)

open Basalt_e2e

let sims =
  List.filter_map
    (fun w ->
      match w.Workloads.kind with
      | Workloads.Sim s -> Some (w, s)
      | Workloads.Udp _ -> None)
    Workloads.toy

let udp_params =
  List.find_map
    (fun w -> match w.Workloads.kind with Workloads.Udp p -> Some p | Workloads.Sim _ -> None)
    Workloads.toy
  |> Option.get

let traced_copy_matches (w, s) () =
  List.iter
    (fun seed ->
      let sc = s.Workloads.scenario ~steps:s.steps ~seed in
      let expected = Outcome.digest (Workloads.untraced s sc) in
      let r = Workloads.traced w ~seed in
      Alcotest.(check (option string))
        (Printf.sprintf "%s seed %d digest" w.Workloads.name seed)
        (Some expected) r.Workloads.digest;
      let total = Metrics.get r "traced_ns" and self = Metrics.get r "self_sum_ns" in
      if Float.abs (self -. total) > 0.01 *. total then
        Alcotest.failf "self times sum to %.0f ns, traced total is %.0f ns" self total)
    [ 42; 7 ]

(* Every string value that follows ["key":] in [text], in order. *)
let strings_after key text =
  let pat = "\"" ^ key ^ "\"" in
  let n = String.length text and m = String.length pat in
  let rec skip i = if i < n && (text.[i] = ' ' || text.[i] = ':') then skip (i + 1) else i in
  let rec go i acc =
    if i + m > n then List.rev acc
    else if String.sub text i m = pat then
      let j = skip (i + m) in
      if j < n && text.[j] = '"' then
        let k = String.index_from text (j + 1) '"' in
        go k (String.sub text (j + 1) (k - j - 1) :: acc)
      else go (i + m) acc
    else go (i + 1) acc
  in
  go 0 []

(* The (name, unit) pairs of one metric section of BENCHMARK.json. *)
let section text ~from ~upto =
  let find key =
    let pat = "\"" ^ key ^ "\"" in
    let rec go i = if String.sub text i (String.length pat) = pat then i else go (i + 1) in
    go 0
  in
  let i = find from in
  let j = match upto with Some k -> find k | None -> String.length text in
  let part = String.sub text i (j - i) in
  List.combine (strings_after "name" part) (strings_after "unit" part)

let benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let pairs = Alcotest.(list (pair string string))
let names ms = List.map (fun m -> (m.Metrics.name, m.Metrics.unit)) ms

let metric_names_match_benchmark_json () =
  let text = benchmark_json () in
  let end_to_end = section text ~from:"end_to_end" ~upto:(Some "per_layer") in
  let per_layer = section text ~from:"per_layer" ~upto:None in
  Alcotest.check pairs "end_to_end table" end_to_end Metrics.end_to_end_units;
  Alcotest.check pairs "per_layer table" per_layer Metrics.per_layer_units;
  let w, _ = List.hd sims in
  let setup = Workloads.setup w ~seed:42 in
  let run = Workloads.run w ~seed:42 in
  let traced = Workloads.traced w ~seed:42 in
  Alcotest.check pairs "end-to-end metrics of a set-up and a run" end_to_end
    (names (Metrics.of_setup setup @ Metrics.of_run run));
  Alcotest.check pairs "per-layer metrics of a traced run" per_layer
    (names (Metrics.per_layer ~run ~traced ()))

let udp_cluster_decodes_everything () =
  let m = Udp_cluster.run udp_params ~seed:42 in
  Alcotest.(check int) "decode errors" 0 m.Udp_cluster.decode_errors;
  Alcotest.(check bool) "views mixed and samples flowing" true (Udp_cluster.check udp_params m)

let () =
  Alcotest.run "e2e"
    [
      ( "traced copy",
        List.map
          (fun ((w, _) as sim) ->
            Alcotest.test_case w.Workloads.name `Quick (traced_copy_matches sim))
          sims );
      ( "benchmark",
        [
          Alcotest.test_case "metric names match BENCHMARK.json" `Quick
            metric_names_match_benchmark_json;
          Alcotest.test_case "udp cluster decodes everything" `Quick
            udp_cluster_decodes_everything;
        ] );
    ]
