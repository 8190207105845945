(** Experiment scenario descriptions.

    A scenario bundles the environment parameters of paper Table 1
    (network size [n], Byzantine fraction [f], attack force [F]) with the
    protocol under test and the run mechanics (duration, bootstrap
    composition, measurement cadence, PRNG seed).  A scenario fully
    determines a run: same scenario, same results. *)

type protocol =
  | Basalt of Basalt_core.Config.t
  | Brahms of Basalt_brahms.Brahms_config.t
  | Sps of Basalt_sps.Sps.config
  | Classic of Basalt_sps.Classic.config

val protocol_names : string list
(** [protocol_names] is [["basalt"; "brahms"; "sps"; "classic"]], the
    names {!protocol_of_name} accepts. *)

val protocol_of_name :
  ?backend:Basalt_hashing.Rank.backend ->
  ?rho:float ->
  v:int ->
  string ->
  (protocol, string) result
(** [protocol_of_name ~v name] is protocol [name] with view size [v] and
    every other parameter at its default.  [rho] sets the sampling rate
    of the two protocols that have one, Basalt and Brahms; SPS and
    classic ignore it.  [backend] sets Basalt's rank function family
    and is ignored by the others.  An unknown [name] is
    an [Error] that names it and lists {!protocol_names}.
    @raise Invalid_argument on a [v] or [rho] the protocol rejects. *)

type t = private {
  name : string;
  n : int;  (** Total nodes (correct + Byzantine). *)
  f : float;  (** Fraction of Byzantine nodes. *)
  force : float;  (** Attack force F (§4.1). *)
  strategy : Basalt_adversary.Adversary.strategy;
  protocol : protocol;
  steps : float;  (** Simulated duration in time units. *)
  bootstrap_size : int;  (** Size I of each node's bootstrap sample. *)
  bootstrap_f0 : float;
      (** Byzantine fraction f0 within the bootstrap: always [f]. *)
  seed : int;
  measure_every : float;  (** Measurement cadence (time units). *)
  graph_metrics : bool;  (** Record Fig. 4's expensive graph metrics. *)
  sample_window : int;  (** Ring-buffer size for sample statistics. *)
  churn : Churn.t option;  (** Continuous node replacement, if any. *)
  latency : Basalt_engine.Link.Latency.t;  (** Message delay model. *)
  loss : Basalt_engine.Link.Loss.t;  (** Non-adversarial message loss. *)
  fault : Basalt_engine.Fault.t option;
      (** Richer fault plan — bursty loss, duplication, reordering,
          partitions, outages (DESIGN.md §10). *)
}

val make :
  ?name:string ->
  ?n:int ->
  ?f:float ->
  ?force:float ->
  ?strategy:Basalt_adversary.Adversary.strategy ->
  ?protocol:protocol ->
  ?steps:float ->
  ?bootstrap_size:int ->
  ?seed:int ->
  ?measure_every:float ->
  ?graph_metrics:bool ->
  ?sample_window:int ->
  ?churn:Churn.t ->
  ?latency:Basalt_engine.Link.Latency.t ->
  ?loss:Basalt_engine.Link.Loss.t ->
  ?fault:Basalt_engine.Fault.t ->
  unit ->
  t
(** [make ()] is the paper's base scenario at reduced scale: [n = 1000],
    [f = 0.1], [F = 10], Basalt with its default configuration,
    [steps = 200], bootstrap of [n/20] peers with [f0 = f], seed 42,
    one measurement per time unit.
    @raise Invalid_argument on inconsistent parameters (e.g. [f] outside
    [\[0, 1)], non-positive sizes). *)

val with_seed : t -> int -> t
(** [with_seed s seed] is [s] with a different PRNG seed (for
    multi-seed averaging). *)

val num_byzantine : t -> int
(** [num_byzantine s] is [round (f * n)]. *)

val num_correct : t -> int
(** [num_correct s] is [n - num_byzantine s]. *)

val tau : t -> float
(** [tau s] is the protocol's exchange interval (1 for all but Basalt,
    whose configuration sets it). *)

val rho : t -> float
(** [rho s] is the protocol's sampling rate: the configured one for
    Basalt and Brahms, 1 for SPS and classic. *)

val refresh_interval : t -> float
(** [refresh_interval s] is the protocol's [k / rho] sampling period. *)

val view_size : t -> int
(** [view_size s] is the protocol's view size parameter. *)

val maker : ?obs:Basalt_obs.Obs.t -> t -> Basalt_proto.Rps.maker
(** [maker s] instantiates the scenario's protocol; [obs] (default
    disabled) is handed to every node so protocol instruments aggregate
    run-wide.  Basalt nodes get the run's [n] as their identifier bound
    ({!Basalt_core.Basalt.factory}), so each allocates its seen-cache
    once, at its final size. *)

val protocol_name : t -> string
(** [protocol_name s] is the short name used in reports (["basalt"],
    ["brahms"], ["sps"], …). *)
