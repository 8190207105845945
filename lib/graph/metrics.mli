(** Graph quality metrics of the paper's Figure 4.

    All metrics follow the paper's measurement conventions (§4.5):
    - the {e clustering coefficient} averages the local clustering
      coefficient of correct nodes in an undirected version of the graph
      where malicious nodes are assumed all connected to one another;
    - the {e mean path length} is measured in a graph where malicious
      nodes have no connections in either direction (they do not
      cooperate in forwarding);
    - the {e in-degree spread} is the difference between the last and
      first decile of correct nodes' in-degrees (counting edges from
      correct nodes only).

    The expensive metrics sample their vertices (400 for clustering, 64
    BFS sources) so that large snapshots remain affordable; with [Rng]
    sampling the estimators are unbiased. *)

val clustering_coefficient :
  rng:Basalt_prng.Rng.t ->
  is_malicious:(int -> bool) ->
  Digraph.t ->
  float
(** [clustering_coefficient ~rng ~is_malicious g] averages the local
    clustering coefficient over (a sample of 400) correct
    vertices.  Nodes of undirected degree [< 2] contribute 0. *)

val mean_path_length :
  rng:Basalt_prng.Rng.t ->
  is_malicious:(int -> bool) ->
  Digraph.t ->
  float
(** [mean_path_length ~rng ~is_malicious g] runs BFS from (a sample of
    64) correct sources over the correct-only directed subgraph
    and averages the distance to every reached correct vertex.  Returns
    [nan] when nothing is reachable. *)

val indegree_decile_spread : is_malicious:(int -> bool) -> Digraph.t -> float
(** [indegree_decile_spread ~is_malicious g] is the 90th minus the 10th
    percentile of correct vertices' in-degrees, counting only edges
    originating at correct vertices. *)
