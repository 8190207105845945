(** Isolation probability bounds (paper §3.3.1).

    Two ways a correct node can become isolated (eclipsed): joining the
    network with a Byzantine-dominated bootstrap, or having all its
    remaining correct slots displaced when seeds are reset.  These
    closed-form bounds show both probabilities can be driven below any
    threshold by sizing [v], [k] and the bootstrap; the [theory]
    experiment reproduces the worked numbers from the paper
    ([B^v < 1e-10] for the joining case, [Δc >= 467] for the reset
    case). *)

val joining_isolation_probability :
  env:Model.env -> f0:float -> bootstrap_size:int -> float
(** Eq. (7): probability that a joining node ends up with only Byzantine
    neighbors, given a bootstrap sample of [bootstrap_size] peers of which
    a fraction [f0] is Byzantine, under worst-case flooding. *)

val delta_c_lower_bound : env:Model.env -> k:int -> c0:float -> float
(** Eq. (12): lower bound on the number of {e new distinct} correct
    identifiers learned between two consecutive resets. *)

val safe_c_threshold : env:Model.env -> k:int -> target:float -> float
(** [safe_c_threshold ~env ~k ~target] is the smallest [c] for which
    Eq. (8)'s reset-isolation probability [B^(v-k)] drops below [target] (the paper's
    example: [c >= 585] gives [< 1e-10] for its scenario). *)
