(* Tests for basalt.graph: snapshots, metrics, isolation. *)

open Basalt_graph
module Node_id = Basalt_proto.Node_id

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let id = Node_id.of_int
let rng () = Basalt_prng.Rng.create ~seed:21
let no_malicious _ = false

(* --- Digraph --- *)

(* A snapshot of explicit views, one row of ids per node. *)
let graph rows =
  Digraph.of_views ~n:(Array.length rows) (fun u -> Array.map id rows.(u))

let edge_count g =
  let total = ref 0 in
  for u = 0 to Digraph.n g - 1 do
    total := !total + Array.length (Digraph.out_neighbors g u)
  done;
  !total

let digraph_dedup_selfloop () =
  let g = graph [| [| 1; 1; 0; 2 |]; [| 0 |]; [||] |] in
  Alcotest.(check (list int))
    "self-loop and dup removed" [ 1; 2 ]
    (Array.to_list (Digraph.out_neighbors g 0));
  check_int "n" 3 (Digraph.n g);
  check_int "edges" 3 (edge_count g)

let digraph_out_of_range () =
  Alcotest.check_raises "bad target"
    (Invalid_argument "Digraph: vertex out of range") (fun () ->
      ignore (graph [| [| 5 |] |]))

let digraph_in_degrees () =
  (* In-degrees 0, 1, 2: deciles interpolate to 0.2 and 1.8. *)
  let g = graph [| [| 1; 2 |]; [| 2 |]; [||] |] in
  check_float "in-degree spread" 1.6
    (Metrics.indegree_decile_spread ~is_malicious:no_malicious g)

let digraph_has_edge () =
  (* View entries are out-edges: node 0's view holds 1, not the other
     way round. *)
  let g = graph [| [| 1 |]; [||] |] in
  check_bool "present" true (Array.mem 1 (Digraph.out_neighbors g 0));
  check_bool "absent" false (Array.mem 0 (Digraph.out_neighbors g 1))

let digraph_undirected_neighbors () =
  (* A directed 3-cycle: each node's undirected neighbors are the other
     two, through one out-edge and one in-edge, and they are linked. *)
  let g = graph [| [| 1 |]; [| 2 |]; [| 0 |] |] in
  check_float "union of both directions" 1.0
    (Metrics.clustering_coefficient ~rng:(rng ()) ~is_malicious:no_malicious g)

let digraph_of_views () =
  let views = [| [| id 1; id 1 |]; [| id 0 |]; [||] |] in
  let g = Digraph.of_views ~n:3 (fun u -> views.(u)) in
  check_int "edges deduped" 2 (edge_count g)

(* --- Metrics --- *)

let complete_graph n =
  graph
    (Array.init n (fun u -> Array.init n (fun v -> v) |> Array.to_list
                            |> List.filter (fun v -> v <> u) |> Array.of_list))

let clustering_complete () =
  let g = complete_graph 5 in
  check_float "complete graph = 1" 1.0
    (Metrics.clustering_coefficient ~rng:(rng ()) ~is_malicious:no_malicious g)

let clustering_star () =
  (* Star: center 0 connected to 1..4, no edges among leaves. *)
  let g = graph [| [| 1; 2; 3; 4 |]; [||]; [||]; [||]; [||] |] in
  check_float "star = 0" 0.0
    (Metrics.clustering_coefficient ~rng:(rng ()) ~is_malicious:no_malicious g)

let clustering_malicious_convention () =
  (* Star whose leaves are all malicious: the paper's convention assumes
     malicious nodes form a clique, so the correct center sees a fully
     connected neighborhood. *)
  let g = graph [| [| 1; 2; 3; 4 |]; [||]; [||]; [||]; [||] |] in
  check_float "malicious clique assumed" 1.0
    (Metrics.clustering_coefficient ~rng:(rng ())
       ~is_malicious:(fun u -> u > 0)
       g)

let path_length_chain () =
  (* 0 -> 1 -> 2 -> 3: from each source distances to all reachable.
     Sum of distances: from 0: 1+2+3; from 1: 1+2; from 2: 1; total 10 over
     6 pairs. *)
  let g = graph [| [| 1 |]; [| 2 |]; [| 3 |]; [||] |] in
  let mpl =
    Metrics.mean_path_length ~rng:(rng ()) ~is_malicious:no_malicious g
  in
  check_float "chain mpl" (10.0 /. 6.0) mpl

let path_length_skips_malicious () =
  (* 0 -> 1 -> 2 where 1 is malicious: 2 unreachable through correct
     nodes, so only no finite correct-to-correct paths exist -> nan. *)
  let g = graph [| [| 1 |]; [| 2 |]; [||] |] in
  let mpl =
    Metrics.mean_path_length ~rng:(rng ()) ~is_malicious:(fun u -> u = 1) g
  in
  check_bool "no correct path" true (Float.is_nan mpl)

let indegree_metrics () =
  (* Ring: every in-degree is 1 -> spread 0. *)
  let ring = graph [| [| 1 |]; [| 2 |]; [| 3 |]; [| 0 |] |] in
  check_float "regular ring spread" 0.0
    (Metrics.indegree_decile_spread ~is_malicious:no_malicious ring)

let indegree_ignores_malicious_edges () =
  (* Edges from malicious node 0 must not count: correct nodes 1 and 2
     then have in-degree 1 each, not 2 and 1. *)
  let g = graph [| [| 1 |]; [| 2 |]; [| 1 |] |] in
  check_float "only correct-to-correct" 0.0
    (Metrics.indegree_decile_spread ~is_malicious:(fun u -> u = 0) g)

(* --- Isolation --- *)

let isolation_cases () =
  let is_mal p = Node_id.to_int p >= 100 in
  check_bool "empty view isolated" true (Isolation.is_isolated ~is_malicious:is_mal [||]);
  check_bool "all malicious isolated" true
    (Isolation.is_isolated ~is_malicious:is_mal [| id 100; id 101 |]);
  check_bool "one correct saves" false
    (Isolation.is_isolated ~is_malicious:is_mal [| id 100; id 3 |])

let () =
  Alcotest.run "graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "dedup/self-loop" `Quick digraph_dedup_selfloop;
          Alcotest.test_case "out of range" `Quick digraph_out_of_range;
          Alcotest.test_case "in-degrees" `Quick digraph_in_degrees;
          Alcotest.test_case "has_edge" `Quick digraph_has_edge;
          Alcotest.test_case "undirected neighbors" `Quick
            digraph_undirected_neighbors;
          Alcotest.test_case "of_views" `Quick digraph_of_views;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "clustering complete" `Quick clustering_complete;
          Alcotest.test_case "clustering star" `Quick clustering_star;
          Alcotest.test_case "clustering malicious convention" `Quick
            clustering_malicious_convention;
          Alcotest.test_case "path length chain" `Quick path_length_chain;
          Alcotest.test_case "paths skip malicious" `Quick
            path_length_skips_malicious;
          Alcotest.test_case "indegree metrics" `Quick indegree_metrics;
          Alcotest.test_case "indegree ignores malicious" `Quick
            indegree_ignores_malicious_edges;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "cases" `Quick isolation_cases;
        ] );
    ]
