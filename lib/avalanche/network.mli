(** A simulated Avalanche-style consensus network driven by an RPS.

    Correct nodes run two coupled protocols on the discrete-event engine:
    a peer sampling service (any {!Basalt_sim.Scenario.protocol}, or an
    idealised full-knowledge sampler) and a {!Snowball} instance deciding
    one binary value.  After a warm-up period for the sampler, each node
    periodically draws a committee from its sample stream, queries it, and
    feeds the collected votes to Snowball.

    Byzantine nodes vote adversarially — they answer every query with the
    {e opposite} of the querier's current preference, the strongest
    stalling strategy available without reading correct nodes' memory —
    and simultaneously run the usual RPS-level flooding attack, so a weak
    sampler lets them into more committees. *)

type sampling = Substrate.sampling =
  | Service of Basalt_sim.Scenario.protocol
      (** Draw committees from the given peer sampler's output stream. *)
  | Full_knowledge
      (** Idealised uniform sampling over the whole membership (the
          baseline the paper's §5 compares against). *)

type result = {
  decided_fraction : float;  (** Correct nodes that finalised. *)
  agreement : bool;  (** No two correct nodes finalised different colors. *)
  decided_red_fraction : float;  (** Among decided, fraction on Red. *)
  mean_decision_time : float;  (** Mean finalisation time ([nan] if none). *)
  committee_byz : float;  (** Mean Byzantine share of queried committees. *)
  queries_sent : int;
}

val run : sampling -> result
(** [run sampling] simulates the network to completion with committees
    drawn from [sampling]: 300 nodes, [f = 0.15] at force 10, Snowball
    ({!Snowball.sample_size} 10, {!Snowball.alpha} 7, {!Snowball.beta}
    12), 70% of the correct nodes starting Red, one query round per time
    unit after a warm-up of 30, 220 time units, seed 42 — the
    configuration [examples/consensus_sampling.ml] runs. *)
