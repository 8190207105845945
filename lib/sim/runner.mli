(** Monte-Carlo run driver.

    Wires a {!Scenario.t} into the discrete-event engine: each correct
    node is a {!Basalt_assembly.Node} running the scenario's protocol
    (rounds every τ, sample ticks every k/ρ), Byzantine nodes are
    impersonated by the collective {!Basalt_adversary.Adversary}, and a
    measurement task records the statistics of {!Measurements} at the
    scenario's cadence.

    Node identifiers are laid out deterministically: correct nodes occupy
    [\[0, Q)], Byzantine nodes [\[Q, n)].  The ranking hash makes the
    numbering irrelevant to the protocols. *)

type app_node = Basalt_assembly.Node.app = {
  app_deliver : from:Basalt_proto.Node_id.t -> Basalt_proto.Message.t -> bool;
  app_tick : Basalt_proto.Node_id.t list -> unit;
  app_round : unit -> unit;
}
(** One correct node's application-layer hooks, composed with its
    sampler by {!Basalt_assembly.Node} (app-first delivery, heartbeat
    after each round, samples after each tick). *)

type app_ctx = {
  app_rng : Basalt_prng.Rng.t;
      (** Stream dedicated to the application, split from the run's
          master only when an app is installed — app-less runs draw
          exactly the streams they always did.  Split it further per
          node (lint rule D10). *)
  app_obs : Basalt_obs.Obs.t;  (** The run's registry (or disabled). *)
  app_now : unit -> float;  (** Virtual time. *)
  app_send : src:int -> dst:Basalt_proto.Node_id.t -> Basalt_proto.Message.t -> unit;
      (** Metered transport send (counted in the bandwidth totals). *)
  app_schedule : delay:float -> (unit -> unit) -> unit;
      (** One-shot virtual-time timer (e.g. a publish schedule). *)
  app_alive : int -> bool;  (** Whether a correct node is alive. *)
  app_view : int -> Basalt_proto.Node_id.t array;
      (** A correct node's current view ([[||]] out of range). *)
}
(** What the runner exposes to an application layer. *)

type app = app_ctx -> int -> app_node
(** An application is instantiated once with the run context, then once
    per correct node (and again when churn respawns the node; a crashed
    node's hooks are replaced by inert ones). *)

type node_outcome = {
  node_view_byz : float;  (** Final Byzantine proportion in the view. *)
  node_sample_byz : float;
      (** Byzantine proportion among the node's retained samples. *)
  node_samples_total : int;  (** Samples the node's service emitted. *)
  node_isolated : bool;  (** Whether the node ended isolated. *)
}

type bandwidth = {
  correct_messages : int;  (** Messages sent by correct nodes. *)
  correct_bytes : int;  (** Estimated wire bytes from correct nodes. *)
  adversary_messages : int;
  adversary_bytes : int;
  max_datagram : int;
      (** Largest single message payload observed — the §4.3 budget
          argument requires it to fit one 1500-byte MTU. *)
}

type result = {
  scenario : Scenario.t;
  series : Measurements.t;
  final : Measurements.point;  (** Last measurement. *)
  per_node : node_outcome array;  (** Indexed by correct node id. *)
  ever_isolated_after_half : bool;
      (** Whether any correct node was isolated during the second half of
          the run (Fig. 5's failure criterion). *)
  transport : Basalt_engine.Engine.stats;
  bandwidth : bandwidth;
  adversary_pushes : int;
  nodes_churned : int;  (** Replacements performed by the churn model. *)
  sample_histogram : int array;
      (** How often each node id was emitted as a sample, aggregated over
          all correct nodes' service outputs — the raw data behind
          stream-uniformity statistics (a good RPS draws every node
          equally often). *)
  obs : Basalt_obs.Obs.t option;
      (** The run's instrument registry when observability was requested
          ([None] otherwise): engine and protocol counters, byte
          sketches, and — with [~trace:true] — the event stream. *)
}

val is_malicious : Scenario.t -> Basalt_proto.Node_id.t -> bool
(** [is_malicious s id] under the deterministic layout. *)

val run :
  ?observer:(time:float -> views:(int -> Basalt_proto.Node_id.t array) -> unit) ->
  ?app:app ->
  ?obs:bool ->
  ?trace:bool ->
  Scenario.t ->
  result
(** [run s] executes the scenario to completion.

    [observer] is invoked at each measurement instant with a view
    accessor (correct nodes only; malicious indices yield [[||]]) — the
    hook used to export snapshots or compute custom metrics.

    [app] installs an application layer on every correct node (see
    {!app}) — e.g. the [lib/gossip] broadcast layer driven by the
    [broadcast] experiment.  Installing an app never perturbs the
    sampler-level streams: the app's PRNG stream is split from the
    master only when present, and app hooks piggyback on the existing
    round/sample timers rather than drawing new phases.

    [obs] (default [false]) creates a per-run instrument registry — its
    snapshots appear in each measurement point's [metrics] field and the
    registry itself in the result's [obs] field.  [trace] (default
    [false]) implies [obs] and additionally records structured events
    (engine send/deliver/drop/ignore) stamped with virtual time.  Both
    leave the measured numbers untouched: the registry is created inside
    the run, so results stay bit-identical at any [-j N]. *)
