(** Operations on views (arrays of node identifiers).

    Shared helpers for inspecting and combining the fixed-size views that
    every protocol in this repository maintains. *)

val proportion : (Node_id.t -> bool) -> Node_id.t array -> float
(** [proportion p view] is the fraction of [view]'s entries satisfying
    [p]; [0.] if the view is empty. *)

val distinct : Node_id.t array -> Node_id.t array
(** [distinct view] removes duplicates, preserving first occurrence
    order. *)

val random_member : Basalt_prng.Rng.t -> Node_id.t array -> Node_id.t option
(** [random_member rng view] is a uniform element, or [None] if empty. *)

val random_subset :
  Basalt_prng.Rng.t -> k:int -> Node_id.t array -> Node_id.t array
(** [random_subset rng ~k view] draws [min k (length view)] distinct
    positions uniformly (the [rand(k, S)] primitive of paper Eq. (1)). *)
