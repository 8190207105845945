(** Stateless 63-bit integer mixers.

    These are SplitMix64-style finalizers: the rank layer's [Cheap]
    backend on the simulator's hot path, and the hash of integer-keyed
    tables.  They are {e not} cryptographic and take no key: a real
    deployment would rank with {!Siphash} under a per-node secret key
    (the rank-backend ablation in the bench harness compares the
    two). *)

val mix63 : int -> int
(** [mix63 x] mixes a native OCaml integer and returns a non-negative
    native integer.  This is the fastest rank primitive: no boxing. *)

val combine63 : int -> int -> int
(** [combine63 seed x] is a non-negative native-integer hash of the pair
    [(seed, x)], suitable for [rank_seed(p) = h(<seed, p>)]. *)
