(** Stateless 63-bit integer mixers.

    These are SplitMix64-style finalizers used as
    cheap rank functions on the simulator's hot path.  They are {e not}
    cryptographic: a real deployment would use {!Siphash} with a per-node
    secret key (the rank-backend ablation in the bench harness compares the
    two). *)

val mix63 : int -> int
(** [mix63 x] mixes a native OCaml integer and returns a non-negative
    native integer.  This is the fastest rank primitive: no boxing. *)

val combine63 : int -> int -> int
(** [combine63 seed x] is a non-negative native-integer hash of the pair
    [(seed, x)], suitable for [rank_seed(p) = h(<seed, p>)]. *)

(* lint: allow D12 — reference: test_hashing checks the Keyed_cheap
   rank backend, which inlines this formula, against it. *)
val keyed63 : key:int -> int -> int -> int
(** [keyed63 ~key seed x] is {!combine63} strengthened with a secret
    [key]: a non-negative native-integer hash of [(key, seed, x)] costing
    one extra {!mix63} round.  The statistical backbone of the rank
    layer's [Keyed_cheap] backend — keyed against rank precomputation but
    {e not} cryptographic; deployments facing adaptive adversaries keep
    SipHash. *)
