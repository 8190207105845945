(** SplitMix64 pseudo-random number generator.

    A small, fast, splittable generator (Steele, Lea & Flood, OOPSLA'14)
    used here both as a stand-alone PRNG and to seed {!Xoshiro256}.  The
    implementation matches the reference C code bit for bit; see the unit
    tests for the published test vectors. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] returns a fresh generator initialised with [seed]. *)

val next : t -> int64
(** [next t] advances the state and returns the next 64-bit output. *)

val mix : int64 -> int64
(** [mix z] is the stateless SplitMix64 finalizer: a high-quality 64-bit
    bijective mixer, usable as a hash of [z]. *)
