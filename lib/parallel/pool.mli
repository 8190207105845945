(** Deterministic domain pool for Monte-Carlo fan-out.

    Every paper figure averages independent seeded runs; this pool fans
    those runs out over OCaml 5 domains without giving up the repo's
    bitwise determinism.  The design is deliberately minimal:

    - {b fixed task queue, no work stealing} — a [map] materialises its
      input as an indexed array and domains claim the next index from a
      single atomic counter.  There are no per-worker deques to steal
      from, so scheduling can never influence {e which} task runs, only
      {e when}; combined with per-task isolation this makes results
      independent of timing.
    - {b per-task isolation} — tasks share no mutable state through the
      pool: each task reads its own input slot and writes its own result
      slot.  Randomness must come with the task (a scenario seed, or a
      {!Basalt_prng.Rng} stream split for it before the fan-out), never from a
      generator shared across tasks.
    - {b ordered collection} — results come back in input order, so
      [map ~pool f xs] is observably identical to [List.map f xs] for
      pure [f], including on failure: if any task raises, the exception
      of the {e leftmost} failing element is re-raised (backtraces are
      not preserved across domains).

    The submitting domain participates in executing tasks, so a pool is
    never a bottleneck smaller than itself and nested [map]s cannot
    deadlock: a [map] issued from inside a task falls back to the
    sequential path.  Concurrent top-level [map]s on one pool are
    serialised.

    See DESIGN.md §7 for the full determinism argument. *)

type t
(** A pool of worker domains (plus the submitting domain). *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns a pool with a total parallelism degree
    of [domains]: [domains - 1] worker domains are spawned, and the
    domain calling {!map} contributes as the [domains]-th worker.
    Defaults to {!recommended_domains}.  [domains = 1] spawns nothing
    and makes {!map} sequential.
    @raise Invalid_argument if [domains < 1]. *)

val recommended_domains : unit -> int
(** [recommended_domains ()] is the runtime's recommended number of
    domains for this machine ([Domain.recommended_domain_count]). *)

val shutdown : t -> unit
(** [shutdown t] asks the workers to exit and joins them.  In-flight
    tasks complete first.  Idempotent; subsequent {!map}s on [t] raise
    [Invalid_argument]. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] with a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)

val map : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?pool f xs] is [List.map f xs], evaluated on the pool's domains
    when [pool] is given.  [f] must be pure up to per-task state (it
    runs concurrently with other tasks and possibly on another domain).
    Without [pool] — or from inside a pool task, or on a 1-domain pool —
    it is exactly [List.map f xs]. *)
