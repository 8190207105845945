(** Extension: full Avalanche DAG consensus over different samplers.

    The paper's §5 use case end-to-end: a DAG of transactions with one
    deliberate double-spend, decided by repeated RPS-sampled committee
    queries ({!Basalt_avalanche.Dag_network}).  Byzantine nodes vote for
    the conflicting branch and flood the RPS.

    Expected shape: with Basalt (as with an idealised full-knowledge
    sampler) safety holds and the network makes steady progress; with the
    classical non-tolerant RPS, committees become attacker-dominated and
    liveness is lost entirely. *)

val print : ?scale:Scale.t -> ?csv:string -> unit -> unit
(** [print ()] runs the experiment and prints the table; [csv] also writes a
    CSV file. *)
