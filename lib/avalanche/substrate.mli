(** The peer-sampling substrate shared by {!Network} and {!Dag_network}.

    Both consensus networks run the same thing underneath their
    application protocol: an engine over a combined wire format, one
    {!Basalt_assembly.Node} per correct node (sampler plus sample
    stream, no app layer) with a small random mixed bootstrap, and the
    collective flooding {!Basalt_adversary.Adversary} impersonating the
    Byzantine nodes.  Correct nodes occupy [\[0, q)], Byzantine nodes
    [\[q, n)] with [n - q = round (f * n)].

    The run's master stream (seeded by [seed]) is split, in order, into
    the engine, node, adversary, bootstrap and committee streams; the
    node stream also draws each caller's query phases. *)

type sampling = Service of Basalt_sim.Scenario.protocol | Full_knowledge
(** Where committees come from, re-exported as {!Network.sampling}. *)

type 'm t

val create :
  n:int ->
  f:float ->
  force:float ->
  adversary_v:int ->
  steps:float ->
  seed:int ->
  wrap:(Basalt_proto.Message.t -> 'm) ->
  sampling ->
  'm t
(** [create ~n ~f ~force ~adversary_v ~steps ~seed ~wrap sampling]
    builds the engine and, under [Service], the correct nodes, arming
    each one's round (every τ) and sampling tick (every k/ρ) at phases
    drawn from the node stream.  When [f > 0] it also builds the
    adversary (pushing [force] times a correct node's rate, forging
    [adversary_v]-entry views) and arms its round every time unit.
    Sampler traffic travels the engine as [wrap msg].  Registers no
    handler: the caller registers every node's, routing sampler frames
    to {!deliver}. *)

val engine : 'm t -> 'm Basalt_engine.Engine.t
(** [engine t] is the run's engine. *)

val correct : 'm t -> int
(** [correct t] is [q], the number of correct nodes. *)

val node_rng : 'm t -> Basalt_prng.Rng.t
(** [node_rng t] is the node stream, for the caller's timer phases. *)

val deliver : 'm t -> int -> from:int -> Basalt_proto.Message.t -> unit
(** [deliver t u ~from msg] hands a sampler frame addressed to [u] to
    its node when [u] is correct (dropped under [Full_knowledge]), to
    the adversary when it is Byzantine. *)

val committee : 'm t -> int -> k:int -> Basalt_proto.Node_id.t array
(** [committee t i ~k] draws node [i]'s query committee from the
    committee stream: [k] retained samples of its stream, with
    replacement ([[||]] while the stream is empty), or [k] uniform
    identifiers under [Full_knowledge]. *)
