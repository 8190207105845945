(** Directed graph snapshots of the overlay.

    A snapshot freezes, at measurement time, the directed graph whose
    vertices are all [n] nodes and whose edges go from each node to the
    members of its current view.  Self-loops and duplicate view entries
    are removed. *)

type t
(** An immutable directed graph over vertices [0 .. n-1]. *)

val of_views : n:int -> (int -> Basalt_proto.Node_id.t array) -> t
(** [of_views ~n view] builds the snapshot; [view i] is node [i]'s current
    view (called once per node).  Nodes may return [[||]] (e.g. malicious
    nodes whose internal state is not modelled). *)

val of_adjacency : int array array -> t
(** [of_adjacency adj] wraps an explicit adjacency (for tests); self-loops
    and duplicates are removed.
    @raise Invalid_argument on out-of-range targets. *)

val n : t -> int
(** Number of vertices. *)

val out_neighbors : t -> int -> int array
(** [out_neighbors g u] is the (deduplicated) out-adjacency of [u]. *)

val in_degrees : t -> int array
(** [in_degrees g] is the in-degree of every vertex. *)

val transpose : t -> t
(** [transpose g] reverses every edge. *)

val edge_count : t -> int
(** Total number of directed edges. *)

val has_edge : t -> int -> int -> bool
(** [has_edge g u v] tests for the edge [u -> v] (O(out-degree)). *)

val undirected_neighbors : t -> int -> int array
(** [undirected_neighbors g u] is the union of in- and out-neighbors of
    [u] (computed against the transpose; prefer batching via
    {!transpose} when calling repeatedly). *)
