(** The Basalt Byzantine-tolerant random peer sampler (paper Algorithm 1).

    Each node maintains [v] slots, each defining a random ranking function
    over node identifiers.  The node stubbornly keeps, per slot, the
    best-ranked identifier seen since the slot's seed was drawn, and uses
    the resulting view both as the output of the sampling service and to
    drive the epidemic pull/push exchanges that discover new identifiers —
    the tight feedback loop that distinguishes Basalt from Brahms (§2.3).

    Protocol driver contract (through {!to_rps}, a {!Basalt_proto.Rps.t}):
    - call [on_round] every [tau] (sends one PULL and one PUSH);
    - route incoming messages to [on_message];
    - call {!sample_tick} every [k / rho] (emits [k] samples and resets
      the corresponding seeds in round-robin order). *)

type t
(** One node's Basalt state. *)

val create :
  ?config:Config.t ->
  ?obs:Basalt_obs.Obs.t ->
  id:Basalt_proto.Node_id.t ->
  bootstrap:Basalt_proto.Node_id.t array ->
  rng:Basalt_prng.Rng.t ->
  send:Basalt_proto.Rps.send ->
  unit ->
  t
(** [create ~id ~bootstrap ~rng ~send ()] initialises all [v] slots with
    fresh seeds and offers the bootstrap peers to every slot (Alg. 1
    lines 3–6).

    [obs] (default disabled) records the run-wide counters
    [basalt.rank_evals] (rank evaluations actually performed — after
    batch dedup and seen-cache elision, not candidates × slots;
    DESIGN.md §8), [basalt.rounds], [basalt.pulls_sent],
    [basalt.pushes_sent], [basalt.samples_emitted],
    [basalt.slot_resets] and [basalt.evictions], and meters outgoing
    messages through {!Basalt_codec.Metered.send} ([basalt.msgs_sent],
    [basalt.bytes_sent], [basalt.msg_bytes], [basalt.max_msg_bytes]).
    Instruments are shared by name across every node handed the same
    sink, so values aggregate over the whole run. *)

val config : t -> Config.t
(** [config t] is the node's configuration. *)

val id : t -> Basalt_proto.Node_id.t
(** [id t] is the node's own identifier. *)

val update_sample : t -> Basalt_proto.Node_id.t array -> unit
(** [update_sample t ids] offers every identifier of [ids] to every slot
    (Alg. 1 lines 20–23).  The local identifier is always skipped, so
    the view never holds a self-loop (a deviation from the paper's
    abstract pseudocode, negligible at the scales simulated).

    The batch is processed in one slot-major pass over
    struct-of-arrays slot state: candidates are deduplicated and
    pre-digested once, and an identifier already offered to every
    current seed is skipped outright — offering a candidate to an
    unchanged slot can never install it, because the slot's best rank
    only decreases between seed resets.  The resulting views are
    bit-identical to the naive per-(slot, candidate) evaluation (the
    differential oracle in [test_basalt.ml] pins this); only the
    number of rank evaluations — and hence [basalt.rank_evals] —
    changes. *)

val sample_tick : t -> Basalt_proto.Node_id.t list
(** [sample_tick t] executes Alg. 1 lines 14–19: for [k] slots in
    round-robin order, returns the slot's current peer as a fresh sample
    and resets the slot's seed; finally re-offers the (pre-reset) view to
    all slots.  Empty slots yield no sample. *)

val view : t -> Basalt_proto.Node_id.t array
(** [view t] is the current view: the peers of all non-empty slots, in
    slot order (duplicates possible — distinct slots may have converged to
    the same identifier). *)

(* lint: allow D12 — test seam: the differential rank oracle compares
   every slot, empty ones included, against its naive model. *)
val view_slots : t -> Basalt_proto.Node_id.t option array
(** [view_slots t] is the per-slot contents including empty slots. *)

(* lint: allow D12 — test seam: the rank oracle's bit-exact check of
   each slot's best rank, which no output shows. *)
val slot_ranks : t -> int option array
(** [slot_ranks t] is each slot's current best rank, [None] for empty
    slots — the holder of slot [i] always ranks exactly
    [slot_ranks t.(i)] under the slot's seed.  Exposed for the
    differential rank-oracle harness in [test_basalt.ml], which checks
    the batched {!update_sample} against a naive per-(slot, candidate)
    reference model. *)

val record_probe : t -> Basalt_proto.Node_id.t -> unit
(** [record_probe t peer] marks the current round as the start of an
    unanswered pull to [peer], unless an older probe is already pending
    ([on_round] does this before each [PULL]; transports with their own
    retry machinery can record extra probes).  Any message from [peer]
    clears the mark ({!clear_probe}). *)

val clear_probe : t -> Basalt_proto.Node_id.t -> unit
(** [clear_probe t peer] drops [peer]'s pending probe: the node has
    heard from it.  [on_message] does this for every message it is
    handed; a transport whose application layer consumes some frames
    before the sampler sees them (broadcast frames, in
    [Basalt_assembly.Node]) calls it for every datagram, as [Udp_node]
    does. *)

(* lint: allow D12 — test seam: evicts at limits 0 and -1, which
   Config.make refuses, to observe the probe bookkeeping at one instant. *)
val run_eviction : t -> limit:int -> unit
(** [run_eviction t ~limit] evicts every peer whose oldest unanswered
    probe is more than [limit] rounds old: all slots holding it are reset
    and the rest of the view is re-offered to the freed slots.  Expired
    peers are processed in ascending identifier order so that the PRNG
    draws consumed by slot resets — and therefore the whole execution —
    do not depend on hash-table iteration order.  Called by [on_round]
    when [evict_after_rounds] is set.  An evicted peer's pending pull is
    abandoned ({!abandon_pull}). *)

val abandon_pull : t -> Basalt_proto.Node_id.t -> unit
(** [abandon_pull t peer] tells the node that its pull to [peer] will
    not be answered (a transport's retries are exhausted), so the pull
    leaves the [basalt.pull] RTT tracker without being observed.
    Without it, every silent peer a long-lived node ever pulled would
    stay pending for the node's lifetime. *)

val pending_pulls : t -> int
(** [pending_pulls t] is the number of pulls the RTT tracker still
    awaits: sent, neither answered nor abandoned.  Always [0] over a
    disabled sink, which tracks nothing. *)

val to_rps : t -> Basalt_proto.Rps.t
(** [to_rps t] exposes [t] through the protocol-agnostic sampler
    interface. *)

val factory :
  ?config:Config.t ->
  ?obs:Basalt_obs.Obs.t ->
  ?id_bound:int ->
  unit ->
  id:Basalt_proto.Node_id.t ->
  bootstrap:Basalt_proto.Node_id.t array ->
  rng:Basalt_prng.Rng.t ->
  send:Basalt_proto.Rps.send ->
  t
(** [factory ?config ?obs ()] is a node constructor equivalent to
    {!create} with the same [config] and [obs], except that all its
    nodes share one {!update_sample} scratch (about 3 words per
    candidate of the largest batch, instead of that much per node).
    Views, ranks and every output are identical.  A factory belongs to
    one run: its nodes must not call into the node layer from two
    domains at once, nor re-enter it from inside a call.

    [id_bound] (default 0) is a bound on the run's identifiers, such as
    the simulator's n.  The seen-cache behind {!update_sample} keeps
    every identifier below it as a w-bit clock tag indexed by the
    identifier, where the clock counts reset bursts and w is the fewest
    of 2, 4 or 8 bits with [ceil(v/k) <= 2^w - 1] (2 bits at the
    default [k = v/2]): [ceil(id_bound * w / 8)] bytes allocated at
    creation and never grown.  Every other identifier — all of them on
    a daemon node, whose identifiers are packed endpoints and whose
    bound is 0 — goes to a hash table allocated at the first such
    identifier and pruned at sample ticks of the entries older than
    every slot's seed.  Neither store changes a view or a rank, nor,
    when [ceil(v/k) <= 255] and no peer is evicted, an evaluation count
    (DESIGN.md §4).
    @raise Invalid_argument if [id_bound] is negative. *)

val sampler :
  ?config:Config.t ->
  ?obs:Basalt_obs.Obs.t ->
  ?id_bound:int ->
  unit ->
  Basalt_proto.Rps.maker
(** [sampler ?config ()] packages the protocol for the simulation
    runner: each call of the maker builds a node through one shared
    {!factory}, so a maker belongs to one run (make one per run, as
    [Runner.run] does, never one shared by runs on several domains);
    [obs] and [id_bound] are threaded to every node. *)
