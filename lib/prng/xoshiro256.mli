(** Xoshiro256++ pseudo-random number generator.

    The general-purpose generator of Blackman & Vigna (2019), with 256 bits
    of state and period [2^256 - 1].  State is initialised from a
    {!Splitmix64} stream, as recommended by the authors.  The state is
    kept unboxed, so {!next_int} and {!next_top53} allocate nothing. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] seeds the four state words from a SplitMix64 stream
    started at [seed]. *)

val of_state : int64 -> int64 -> int64 -> int64 -> t
(** [of_state s0 s1 s2 s3] builds a generator from an explicit state.
    @raise Invalid_argument if all four words are zero (the one forbidden
    state). *)

val next : t -> int64
(** [next t] advances the state and returns the next 64-bit output. *)

val next_int : t -> int
(** [next_int t] is [Int64.to_int (next t)] (the low 63 bits of the
    output), without boxing. *)

val next_top53 : t -> int
(** [next_top53 t] is the top 53 bits of [next t] as a non-negative
    [int], without boxing — the mantissa of a uniform float. *)
