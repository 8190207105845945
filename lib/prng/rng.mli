(** Seedable random number generator for simulations.

    A thin, deterministic wrapper around {!Xoshiro256} providing the draw
    primitives the simulator and the protocols need.  Every run of an
    experiment is reproducible from a single integer seed; independent
    sub-streams are obtained with {!split} so that, e.g., each simulated
    node owns its own generator and the schedule of one node does not
    perturb the randomness of another. *)

type t
(** Mutable generator. *)

val create : seed:int -> t
(** [create ~seed] returns a deterministic generator for [seed]. *)

val split : t -> t
(** [split t] derives a new generator from [t]'s stream.  The child and
    the parent then evolve independently. *)

val int64 : t -> int64
(** [int64 t] is the next raw 64-bit output. *)

val bits : t -> int
(** [bits t] is a uniform non-negative native integer (62 random bits). *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)], using rejection sampling so
    the result is exactly uniform.  @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)], with 53 bits of precision. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p]. *)

val pick : t -> 'a array -> 'a
(** [pick t a] is a uniformly chosen element of [a].
    @raise Invalid_argument if [a] is empty. *)

val shuffle_in_place : t -> 'a array -> unit
(** [shuffle_in_place t a] permutes [a] uniformly (Fisher–Yates). *)

val sample_without_replacement : t -> k:int -> 'a array -> 'a array
(** [sample_without_replacement t ~k a] draws [min k (Array.length a)]
    distinct positions of [a], uniformly, in random order. *)
