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

type config = private {
  n : int;
  f : float;
  force : float;
  sampling : sampling;
  snowball : Snowball.config;
  initial_red : float;  (** Fraction of correct nodes starting Red. *)
  warmup : float;  (** RPS warm-up time before querying starts. *)
  query_interval : float;
  steps : float;
  seed : int;
}

val config :
  ?n:int ->
  ?f:float ->
  ?force:float ->
  ?sampling:sampling ->
  ?snowball:Snowball.config ->
  ?initial_red:float ->
  ?warmup:float ->
  ?query_interval:float ->
  ?steps:float ->
  ?seed:int ->
  unit ->
  config
(** [config ()] defaults to 300 nodes, [f = 0.15], force 10, Basalt
    sampling with a 60-slot view, Snowball (10, 7, 15), 70% initial Red,
    warm-up 30, one query round per time unit, 200 steps.
    @raise Invalid_argument on out-of-range fractions or non-positive
    durations. *)

type result = {
  decided_fraction : float;  (** Correct nodes that finalised. *)
  agreement : bool;  (** No two correct nodes finalised different colors. *)
  decided_red_fraction : float;  (** Among decided, fraction on Red. *)
  mean_decision_time : float;  (** Mean finalisation time ([nan] if none). *)
  committee_byz : float;  (** Mean Byzantine share of queried committees. *)
  queries_sent : int;
}

val run : config -> result
(** [run c] simulates the network to completion. *)
