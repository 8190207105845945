(** Seeded rank functions (min-wise independent permutations).

    Basalt's stubborn chaotic search defines a node's target [i]-th
    neighbor as the peer [p] minimising [rank_seed[i](p)], where
    [rank_seed(p) = h(<seed, p>)] for a uniform hash function [h]
    (paper §2.3).  Drawing a fresh random [seed] re-randomises the
    permutation of node identifiers, realising a uniform sample of the
    identifiers subsequently offered to the slot.

    Four backends are provided:
    - {!Cheap}: a native-integer mixer — the simulator's default, fast
      enough to evaluate ~10⁹ ranks per experiment;
    - {!Keyed_cheap}: the same mixer chained over a secret native-int
      key ({!Mix.keyed63}) — a documented fast path for
      adversarial-model simulations at scale, where per-key rank
      unpredictability matters but cryptographic strength does not;
    - {!Siphash}: a keyed PRF — what a real deployment would use so that
      an adversary cannot precompute low-ranking identifiers.
      {!offer_slot} absorbs the key and seed into a {!Siphash.midstate}
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
  | Keyed_cheap of int
      (** The secret key (any native int, e.g. [Rng.bits]); ranks are
          {!Mix.keyed63}[ ~key seed id].  Not cryptographic — a
          simulation-scale stand-in for {!Siphash}. *)
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
    batches {!offer_slot} scans).  It is [Mix.mix63 id] already put
    through the mixer's first xorshift, not [Mix.mix63 id] itself, so a
    [dig] array must be filled by [digest]. *)

val offer_slot :
  backend ->
  int ->
  stamp:int ->
  raw:int array ->
  dig:int array ->
  since:int array ->
  max_since:int ->
  len:int ->
  best_ranks:int array ->
  holders:int array ->
  int ->
  int
(** [offer_slot backend seed ~stamp ~raw ~dig ~since ~max_since ~len
    ~best_ranks ~holders i] offers the prepared candidates [j < len]
    (identifier [raw.(j)], its {!digest} [dig.(j)]) to slot [i], whose
    seed is [seed].  A candidate is ranked only when [stamp > since.(j)]
    (the slot's seed was drawn after the candidate was last offered to
    it); it replaces the slot's holder when its rank is below
    [best_ranks.(i)] or the slot is empty ([holders.(i) < 0]).  The
    final best rank and holder are written back to [best_ranks.(i)] and
    [holders.(i)].  Returns the number of ranks evaluated.

    [max_since] must be at least every [since.(j)], [j < len].  When
    [stamp > max_since] every candidate is ranked and [since] is not
    read (it may be empty); on {!Cheap} such a slot runs an unchecked,
    four-way unrolled loop with no per-candidate test or counter, whose
    holders, ranks and count equal the checked loop's.  Rank values
    equal {!rank}'s; the cheap backends are evaluated inline, without
    a call per candidate, and {!Siphash} derives the seed's midstate
    once per call.  The one slot kernel of the repository: Basalt's
    view slots ([Basalt.update_sample], whose seen-cache supplies
    [since]) and Brahms's samplers (no seen-cache: an empty [since]
    below a [max_since] under [stamp], so every candidate is ranked)
    both run on it (DESIGN.md §4). *)
