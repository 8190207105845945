(** Avalanche DAG consensus over an RPS-sampled network.

    Every correct node maintains a {!Tx_dag} and repeatedly queries
    committees drawn from its peer sampling service about not-yet-accepted
    transactions: a query carries the transaction's ancestor closure, the
    recipient inserts it and answers whether it is strongly preferred; an
    [alpha]-quorum of positive votes awards a chit.

    The scenario: after an RPS warm-up, one node issues transaction A and
    another issues a {e conflicting} B (same conflict set), then a chain
    of virtuous transactions builds on whichever branch each issuer
    prefers.  Byzantine nodes answer every query with a vote for the
    minority branch (and keep running the RPS-level flooding attack).

    Measured outcomes: {e safety} — no two correct nodes accept
    conflicting transactions; {e liveness} — virtuous transactions are
    accepted; and the usual committee pollution. *)

type config = private {
  n : int;
  sampling : Network.sampling;
  steps : float;
}

val config : n:int -> sampling:Network.sampling -> steps:float -> config
(** [config ~n ~sampling ~steps] runs [n] nodes for [steps] time units
    with committees drawn from [sampling]; everything else is fixed:
    [f = 0.15] at force 10, committees of {!Snowball.sample_size} (10)
    with quorum {!Snowball.alpha} (7), {!Tx_dag.accepted}'s thresholds
    ([beta1 = 5], [beta2 = 8]), a warm-up of 25, 20 virtuous
    transactions, seed 42.
    @raise Invalid_argument unless [n > 0] and [steps] exceeds the
    warm-up. *)

type result = {
  safety : bool;  (** No conflicting acceptances across correct nodes. *)
  conflict_resolved_fraction : float;
      (** Correct nodes that accepted one branch of the conflict. *)
  virtuous_accepted_fraction : float;
      (** Mean fraction of virtuous transactions accepted per node. *)
  mean_acceptance_time : float;  (** Over all acceptances ([nan] if none). *)
  committee_byz : float;
  queries : int;
}

val run : config -> result
(** [run config] simulates the configured DAG deployment and returns the
    aggregated {!result}. *)
