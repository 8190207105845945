(** Seeded rank functions (min-wise independent permutations).

    Basalt's stubborn chaotic search defines a node's target [i]-th
    neighbor as the peer [p] minimising [rank_seed[i](p)], where
    [rank_seed(p) = h(<seed, p>)] for a uniform hash function [h]
    (paper §2.3).  Drawing a fresh random [seed] re-randomises the
    permutation of node identifiers, realising a uniform sample of the
    identifiers subsequently offered to the slot.

    Three backends are provided:
    - {!Cheap}: a native-integer mixer — the simulator's default, fast
      enough to evaluate ~10⁹ ranks per experiment;
    - {!Siphash}: a keyed PRF — what a real deployment would use so that
      an adversary cannot precompute low-ranking identifiers.
      {!offer_slots} absorbs the key and seed into a {!Siphash.midstate}
      once per slot per batch, so each evaluation only finishes the
      identifier block;
    - {!Prefix_diverse}: the §6 "specially crafted rank function":
      identifiers are ranked first by a hash of their {e address prefix}
      and only then by a hash of the identifier itself, so a slot's
      target is a uniformly random prefix (then a uniform member of it).
      An attacker concentrated in a few prefixes — the institutional /
      Sybil setting of HAPS — is thereby capped near its {e prefix}
      share instead of its identifier share.  The trade-off: sampling is
      uniform over prefixes, not over nodes.

    Every cached evaluation path returns bit-identical rank
    values to the plain formula — the differential suites in
    [test_hashing.ml] and [test_basalt.ml] pin the equality.  The test
    suite also checks that the cheap and SipHash backends produce
    statistically indistinguishable sampling behavior; the bench harness
    measures the speed gap (the hash-function ablation of DESIGN.md §4). *)

type backend =
  | Cheap
  | Siphash of Siphash.key
  | Prefix_diverse of { prefix_of : int -> int }
      (** [prefix_of id] maps an identifier to its address prefix (e.g.
          an IP /24); prefixes must be non-negative. *)

val fresh : Basalt_prng.Rng.t -> int
(** [fresh rng] draws a new uniformly random seed: one slot's ranking
    function, a plain integer for every backend.  It makes one
    [Rng.bits] draw, so swapping backends never perturbs the PRNG stream
    shape. *)

val rank : backend -> int -> int -> int
(** [rank backend seed id] is a non-negative integer rank of node [id]
    under [seed]; lower ranks are better matches.  Deterministic in
    [(backend, seed, id)]. *)

val digest : int -> int
(** [digest id] is the identifier-side half of the cheap mixers, for
    batch loops that keep candidate digests in an [int array] (the
    batches {!offer_slots} scans).  It is [Mix.mix63 id] already put
    through the mixer's first xorshift, not [Mix.mix63 id] itself, so a
    [dig] array must be filled by [digest]. *)

val offer_slots :
  backend ->
  seeds:int array ->
  stamps:int array ->
  raw:int array ->
  dig:int array ->
  since:int array ->
  max_since:int ->
  len:int ->
  best_ranks:int array ->
  holders:int array ->
  int
(** [offer_slots backend ~seeds ~stamps ~raw ~dig ~since ~max_since ~len
    ~best_ranks ~holders] offers the prepared candidates [j < len]
    (identifier [raw.(j)], non-negative, and its {!digest} [dig.(j)]) to
    every slot [i] of a node, in arrival order.  Slot [i] has seed
    [seeds.(i)], was drawn at clock [stamps.(i)], and holds
    [holders.(i)] (negative when empty) at rank [best_ranks.(i)].  A
    candidate is ranked only when [stamps.(i) > since.(j)] (the slot's
    seed was drawn after the candidate was last offered to it); it
    replaces the holder when its rank is below the best rank or the slot
    is empty.  Final best ranks and holders are written back in place.
    Returns the number of ranks evaluated.  Allocates nothing, except
    one {!Siphash.midstate} per slot on {!Siphash}.

    [max_since] must be at least every [since.(j)], [j < len]: a slot
    whose stamp is above it takes every candidate without reading
    [since], which may then be shorter than [len] (Brahms passes it
    empty).  Rank values equal {!rank}'s.  On {!Cheap} one C call ranks
    the whole batch against every slot, with an AVX-512 body (eight
    slots per register, two registers per step) on CPUs that have
    AVX-512F and DQ and a scalar body elsewhere, picked once at start-up
    (DESIGN.md §4); {!Siphash} and {!Prefix_diverse} each run an OCaml
    loop per slot, and {!Siphash} derives each seed's midstate once per
    call.  The one slot kernel of the repository: Basalt's view slots
    ([Basalt.update_sample], whose seen-cache supplies [since]) and
    Brahms's samplers (no seen-cache: every candidate is fresh) both run
    on it.

    @raise Invalid_argument if [seeds], [stamps], [best_ranks] and
    [holders] differ in length, if [len] is negative or [raw] or [dig]
    has fewer than [len] entries, or if [since] has fewer than [len]
    entries while some stamp is at most [max_since]. *)
