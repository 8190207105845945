(** SipHash-c-d keyed hash function (Aumasson & Bernstein, 2012).

    Implemented from scratch on [int64].  SipHash is a pseudo-random
    function: under a secret key, outputs on attacker-chosen inputs are
    indistinguishable from random, which is exactly the property the
    Basalt rank function needs (a Byzantine node must not be able to craft
    identifiers that rank low under a correct node's fresh seeds).

    The default instance is SipHash-2-4; a faster SipHash-1-3 instance is
    also exposed.  Both match the reference implementation (the 2-4 test
    vectors from the paper's appendix are checked in the unit tests). *)

type key = { k0 : int64; k1 : int64 }
(** A 128-bit secret key. *)

val key_of_rng : Basalt_prng.Rng.t -> key
(** [key_of_rng rng] draws a fresh random key. *)

val key_of_ints : int64 -> int64 -> key
(** [key_of_ints k0 k1] builds a key from two explicit words. *)

(* lint: allow D12 — reference: the SipHash paper's test vectors pin it,
   and test_hashing checks the pair and midstate paths against it. *)
val hash_bytes : ?c:int -> ?d:int -> key -> bytes -> int64
(** [hash_bytes ~c ~d key msg] is SipHash-c-d of [msg] under [key]
    (default [c = 2], [d = 4]). *)

val hash_int64_pair : ?c:int -> ?d:int -> key -> int64 -> int64 -> int64
(** [hash_int64_pair key a b] hashes the 16-byte little-endian encoding of
    [(a, b)]; the allocation-free primitive behind seeded rank functions. *)

type midstate
(** A precomputed hash midstate: the internal SipHash registers after the
    key initialisation and the compression of one fixed 8-byte prefix
    block.  In Basalt the prefix is a slot's rank seed, absorbed once
    when the seed is drawn; ranking an identifier then only finishes the
    identifier block ({!finish_int64_pair}), skipping the key setup and
    the prefix compression on every evaluation — the dominant term of
    the rank hot path at [v × candidates] evaluations per exchange. *)

val prepare_int64 : ?c:int -> key -> int64 -> midstate
(** [prepare_int64 ~c key a] absorbs the first 8-byte block [a] under
    [key] (default [c = 2]) and captures the resumable midstate. *)

val finish_int64_pair : ?d:int -> midstate -> int64 -> int64
(** [finish_int64_pair ~d ms b] resumes [ms] with the second block [b]
    and returns the finished hash (default [d = 4]):
    [finish_int64_pair (prepare_int64 key a) b = hash_int64_pair key a b]
    for every [key], [a], [b] (with matching [c]/[d]).  The default 2-4
    instance runs fully unrolled with unboxed intermediates — roughly an
    order of magnitude faster than {!hash_int64_pair}. *)
