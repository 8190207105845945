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

val n : t -> int
(** Number of vertices. *)

val out_neighbors : t -> int -> int array
(** [out_neighbors g u] is the (deduplicated) out-adjacency of [u]. *)
