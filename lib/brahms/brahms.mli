(** The Brahms Byzantine-resilient membership sampler (Bortnikov et al.,
    2009), as configured by the Basalt paper's evaluation (§2.2, §4.3).

    Brahms maintains two structures: a gossip view 𝒱 rebuilt each round
    from push/pull exchanges and re-injected sampler outputs (Eq. (2)),
    and a vector 𝒮 of min-wise samplers fed with every identifier that
    passes through the view exchanges.  Unlike Basalt, the chaotic search
    (the samplers) gives only limited feedback to the gossip view — the
    separation the paper identifies as Brahms's weakness.

    The node runs as §4.3 of the Basalt paper configures it, so the
    protocols are comparable:
    - the view is rebuilt from pushed ids, pulled ids and sampler outputs
      in equal thirds (α = β = γ = 1/3 in Eq. (2));
    - per the communication budget, each round sends one [PUSH-ID]
      (Brahms pushes only its own identifier) and one [PULL] request;
    - the blocking mechanism (skipping the view update when too many
      pushes arrive) is deactivated: varying the attack force would push
      Brahms past its design envelope and blocking would stall it;
    - {e multi-shot extension}: every [k/rho] time units, [k] samplers are
      emitted and reset in round-robin order (the analogue of Alg. 1
      lines 14–18, with line 18 replaced by [S_p[i].init()]).

    The samplers rank with {!Basalt_hashing.Rank.Cheap} and never hold the
    node's own identifier. *)

val sampler :
  ?config:Brahms_config.t ->
  ?obs:Basalt_obs.Obs.t ->
  unit ->
  Basalt_proto.Rps.maker
(** [sampler ?config ()] packages the protocol for the simulation
    runner.  Each call of the maker builds one node, whose view starts
    with (up to) [l] bootstrap peers and whose samplers are fed the
    bootstrap list.  The nodes of one maker share the arrays their
    sampler feed stages ids in (instead of one set per node); every
    output is identical.  A maker therefore belongs to one run: make one
    per run, as [Runner.run] does, never one shared by runs on several
    domains.  The service's [current_view] is 𝒱, its [sample_tick]
    emits and resets the next [k] samplers of 𝒮 (the multi-shot
    extension), matching the paper's measurement methodology.

    [obs] (default disabled), threaded to every node, records counters
    [brahms.rank_evals], [brahms.rounds], [brahms.pulls_sent],
    [brahms.pushes_sent], [brahms.samples_emitted],
    [brahms.slot_resets] and [brahms.view_rebuilds], and meters outgoing
    messages through {!Basalt_codec.Metered.send}; instruments aggregate
    across all nodes sharing the sink. *)
